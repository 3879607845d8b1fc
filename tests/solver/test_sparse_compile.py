"""Sparse-vs-dense differential suite for the end-to-end solver core.

The non-negotiable contract of the sparse compile path: **bit-identical
objectives and deployments** against the dense reference implementations
in :mod:`tests.solver.dense_oracle`.  Over 50 seeded models this suite
pins

* compile bit-identity — the CSR standard form densifies to exactly the
  matrix :func:`dense_compile` builds from ``model.constraints``, cell
  for cell, and every vector field matches;
* LP relaxation identity — HiGHS returns the *same bits* (objective and
  solution vector) whether it is handed the CSR or the dense matrices;
* presolve lift-back exactness under the bitset dominance engine, plus
  agreement with the dense oracle engine on which columns they fix —
  on the seeded programs and on the 100-monitor sweep models.

The multizone catalog test is the reduction the sparse engine exists
for: a zone-structured monitor catalog full of near-duplicate placements
must collapse under the dominated-monitor rule before the solver
branches.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
import scipy.sparse as sp

# ``repro.solver.__init__`` rebinds the attribute ``presolve`` to the
# function of the same name, so attribute-style module import would hand
# back the function; go through importlib for the module itself.
presolve_mod = importlib.import_module("repro.solver.presolve")
from repro.casestudy.scaling import synthetic_model
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.optimize.problem import MaxUtilityProblem
from repro.solver import (
    MilpModel,
    ObjectiveSense,
    PresolveStatus,
    SolutionStatus,
    presolve,
    solve,
)
from repro.solver.lp import solve_lp
from repro.solver.sparse import (
    csr_from_rows,
    dense_equivalent_nbytes,
    matrices_equal,
    matrix_nbytes,
)
from tests.solver.dense_oracle import dense_compile, dominated_dense, to_dense
from tests.solver.enumeration_oracle import solve_by_enumeration
from tests.solver.test_presolve import random_program

SEEDS = range(50)


def use_dense_dominance(monkeypatch):
    """Route every dominance round through the dense oracle engine."""
    monkeypatch.setattr(presolve_mod._Reducer, "_dominated_bitset", dominated_dense)


# -- compile bit-identity --------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_and_dense_compiles_are_bit_identical(seed):
    model = random_program(seed)
    sparse_form = model.compile()
    dense_form = dense_compile(model)

    assert sp.isspmatrix_csr(sparse_form.A_ub) and sp.isspmatrix_csr(sparse_form.A_eq)
    assert np.array_equal(to_dense(sparse_form.A_ub), dense_form.A_ub)
    assert np.array_equal(to_dense(sparse_form.A_eq), dense_form.A_eq)
    for field in ("c", "b_ub", "b_eq", "lower", "upper", "integrality"):
        assert np.array_equal(
            getattr(sparse_form, field), getattr(dense_form, field)
        ), field
    assert sparse_form.objective_constant == dense_form.objective_constant
    assert sparse_form.maximize == dense_form.maximize
    # The dense-equivalent footprint is the oracle's real footprint (the
    # CSR payload itself can exceed it on toy matrices — indptr
    # overhead — which is fine; the win is asymptotic, not universal).
    assert sparse_form.dense_matrix_nbytes == (
        dense_form.A_ub.nbytes + dense_form.A_eq.nbytes
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_lp_relaxation_is_bit_identical_across_flavors(seed):
    model = random_program(seed)
    s = model.compile()
    from_sparse = solve_lp(s.c, s.A_ub, s.b_ub, s.A_eq, s.b_eq, s.lower, s.upper)
    from_dense = solve_lp(
        s.c, to_dense(s.A_ub), s.b_ub, to_dense(s.A_eq), s.b_eq, s.lower, s.upper
    )
    assert from_sparse.status == from_dense.status
    if from_sparse.is_optimal:
        # Same matrix bits in, same HiGHS run out — exact, not approx.
        assert from_sparse.objective == from_dense.objective
        assert np.array_equal(from_sparse.x, from_dense.x)


# -- presolve under the bitset dominance engine ----------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_liftback_is_exact_under_the_sparse_dominance_engine(seed):
    model = random_program(seed)
    cold = solve_by_enumeration(model)
    if cold.status is SolutionStatus.INFEASIBLE:
        warm = solve(model, presolve=True)
        assert warm.status is SolutionStatus.INFEASIBLE
        return
    warm = solve(model, presolve=True)
    assert warm.status is SolutionStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
    assert model.is_feasible(warm.values, tolerance=1e-6)
    assert set(warm.values) == {v.name for v in model.variables}


def assert_engines_agree(model, monkeypatch):
    """Presolve ``model`` under both engines; every outcome must match."""
    via_sparse = presolve(model)
    with monkeypatch.context() as patch:
        use_dense_dominance(patch)
        via_dense = presolve(model)

    assert via_dense.status == via_sparse.status
    assert via_dense.stats.to_dict() == via_sparse.stats.to_dict()
    assert via_dense.fixed == via_sparse.fixed
    if via_dense.status is PresolveStatus.REDUCED:
        reduced_dense = via_dense.reduced.compile()
        reduced_sparse = via_sparse.reduced.compile()
        assert matrices_equal(reduced_dense.A_ub, reduced_sparse.A_ub)
        assert matrices_equal(reduced_dense.A_eq, reduced_sparse.A_eq)
        assert np.array_equal(reduced_dense.c, reduced_sparse.c)
        assert np.array_equal(reduced_dense.b_ub, reduced_sparse.b_ub)
        assert np.array_equal(reduced_dense.b_eq, reduced_sparse.b_eq)
    return via_sparse


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_and_sparse_dominance_engines_fix_identical_columns(seed, monkeypatch):
    assert_engines_agree(random_program(seed), monkeypatch)


@pytest.mark.parametrize("fraction", [0.1, 0.3, 0.5, 0.9])
def test_engines_agree_on_the_100_monitor_sweep_models(fraction, monkeypatch):
    # The sweep_bb_warm family (442 variables): big enough that the
    # dominance rule fixes many columns, far past the seeded programs.
    catalog = synthetic_model(assets=30, monitors=100, attacks=50, seed=7)
    problem = MaxUtilityProblem(
        catalog, Budget.fraction_of_total(catalog, fraction), UtilityWeights()
    )
    milp, _ = problem.build()
    result = assert_engines_agree(milp, monkeypatch)
    assert result.stats.dominated_columns > 0


def test_sparse_engine_prunes_a_handbuilt_dominated_column():
    # x1 covers everything x2 does (rows) at lower cost: the bitset
    # engine must fix x2 to 0 and record a dominance round.
    model = MilpModel("dominated", ObjectiveSense.MINIMIZE)
    x1 = model.binary("x1")
    x2 = model.binary("x2")
    x3 = model.binary("x3")
    model.add_constraint(-2.0 * x1 - 1.0 * x2 - 1.0 * x3 <= -2.0, name="cover")
    model.set_objective(1.0 * x1 + 3.0 * x2 + 2.0 * x3)
    result = presolve(model)
    assert result.stats.dominated_columns >= 1
    assert result.stats.sparse_dominance_rounds >= 1
    warm = solve(model, presolve=True)
    cold = solve_by_enumeration(model)
    assert warm.objective == pytest.approx(cold.objective)
    assert warm.values["x2"] == 0.0


def test_multizone_catalog_collapses_under_dominated_monitor_rule():
    # The reduction that makes thousands-of-monitor catalogs tractable:
    # zone-correlated costs mean many placements are covered by a
    # no-more-expensive rival, and presolve proves them droppable.
    catalog = synthetic_model(
        assets=40,
        monitor_types=10,
        monitors=150,
        attacks=30,
        seed=7,
        topology="multizone",
        zones=4,
    )
    problem = MaxUtilityProblem(
        catalog, Budget.fraction_of_total(catalog, 0.35), UtilityWeights()
    )
    milp, _ = problem.build()
    result = presolve(milp)
    assert result.status is PresolveStatus.REDUCED
    assert result.stats.dominated_columns > 0
    assert result.stats.columns_after < result.stats.columns_before
    # And the reduction is exact: lifted solve equals the cold solve.
    cold = solve(milp, "scipy")
    warm = solve(milp, "scipy", presolve=True)
    assert warm.status is cold.status is SolutionStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-6)


# -- csr_from_rows canonical-form unit pins --------------------------------


def test_csr_from_rows_builds_canonical_int32_csr():
    rows = [
        (np.array([0, 3], dtype=np.int32), np.array([1.5, -2.0])),
        (np.array([], dtype=np.int32), np.array([])),  # genuine zero row
        (np.array([1], dtype=np.int32), np.array([4.0])),
    ]
    matrix = csr_from_rows(rows, 5)
    assert matrix.shape == (3, 5)
    assert matrix.indices.dtype == np.int32
    assert matrix.indptr.dtype == np.int32
    assert matrix.has_sorted_indices and matrix.has_canonical_format
    expected = np.zeros((3, 5))
    expected[0, 0], expected[0, 3], expected[2, 1] = 1.5, -2.0, 4.0
    assert np.array_equal(to_dense(matrix), expected)
    assert matrix_nbytes(matrix) == (
        matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    )
    assert dense_equivalent_nbytes(matrix) == 3 * 5 * 8


def test_csr_from_rows_handles_the_empty_block():
    matrix = csr_from_rows([], 7)
    assert matrix.shape == (0, 7)
    assert matrix.nnz == 0
    assert matrices_equal(matrix, csr_from_rows([], 7))
