"""Differential suite: direct HiGHS LP relaxations vs ``scipy.optimize.linprog``.

:class:`~repro.solver.lp.LpRelaxation` hands HiGHS the model
``linprog(method="highs")`` would build, so the two must agree to the
bit — status, objective and solution vector — on every LP.  ``linprog``
is kept here only as the oracle.  The suite covers 50 seeded random LPs
(dense, CSR and mixed blocks; empty inequality or equality blocks;
equality rows; infeasible, unbounded and crossed-bound cases) and every
node LP that branch and bound solves in the tiny ``sweep_bb_warm``
budget sweep.  Those node LPs, solved again on a helper thread as
branch and bound solves second siblings, must match the main thread's
results bit for bit.  It also checks that an "optimal" point failing
the post-solve feasibility check raises instead of being returned.
"""

from __future__ import annotations

import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.optimize._highspy import _core

from repro import obs
from repro.casestudy import synthetic_model
from repro.errors import SolverError
from repro.metrics.utility import UtilityWeights
from repro.optimize.pareto import budget_sweep
from repro.solver import branch_and_bound
from repro.solver import lp as lp_module
from repro.solver.lp import LpRelaxation, LpResult, solve_lp
from tests.conftest import knapsack_model

SEEDS = range(50)
KINDS = ("optimal", "empty_ub", "empty_eq", "no_rows", "infeasible", "unbounded", "crossed")
FLAVORS = ("dense", "csr", "mixed")

#: ``perfbench/sweep_bb_warm.py`` ``SCALES["tiny"]``: model and fraction count.
TINY_SWEEP_MODEL = dict(assets=10, monitors=20, attacks=12, seed=7)
TINY_SWEEP_POINTS = 4


def oracle(c, A_ub, b_ub, A_eq, b_eq, lower, upper) -> LpResult | None:
    """``linprog``'s answer as an :class:`LpResult`; None for an error status."""
    result = linprog(
        c,
        A_ub=A_ub if b_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=A_eq if b_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=np.column_stack((lower, upper)),
        method="highs",
    )
    if result.status == 0:
        return LpResult("optimal", float(result.fun), np.asarray(result.x))
    if result.status == 2:
        return LpResult("infeasible", float("inf"), None)
    if result.status == 3:
        return LpResult("unbounded", float("-inf"), None)
    return None


def assert_bit_identical(got: LpResult, expected: LpResult) -> None:
    assert got.status == expected.status
    assert np.float64(got.objective).tobytes() == np.float64(expected.objective).tobytes()
    if expected.x is None:
        assert got.x is None
    else:
        assert got.x.tobytes() == expected.x.tobytes()


def random_lp(seed: int):
    """A seeded LP of the seed's kind and matrix flavor, with node bounds."""
    rng = np.random.default_rng(seed)
    kind = KINDS[seed % len(KINDS)]
    flavor = FLAVORS[seed % len(FLAVORS)]
    n = int(rng.integers(2, 9))
    m_ub = 0 if kind in ("empty_ub", "no_rows") else int(rng.integers(1, 7))
    m_eq = 0 if kind in ("empty_eq", "no_rows") else int(rng.integers(1, 3))

    def block(rows: int) -> np.ndarray:
        dense = rng.uniform(-3.0, 3.0, size=(rows, n))
        dense[rng.random((rows, n)) < 0.4] = 0.0
        return dense

    lower = np.zeros(n)
    upper = rng.uniform(1.0, 5.0, size=n)
    x0 = rng.uniform(lower, upper)  # feasible by construction
    A_ub, A_eq = block(m_ub), block(m_eq)
    c = rng.uniform(-2.0, 2.0, size=n)
    if kind == "unbounded":
        # x_0 can grow without bound: free above, cost negative, and no
        # row that it pushes against.
        upper[0] = np.inf
        c[0] = -1.0
        A_ub[:, 0] = -np.abs(A_ub[:, 0])
        A_eq[:, 0] = 0.0
    b_ub = A_ub @ x0 + rng.uniform(0.0, 1.0, size=m_ub)
    b_eq = A_eq @ x0
    if kind == "infeasible":
        # Row 0 and its negation shifted past it: a.x <= t and a.x >= t + 1.
        A_ub = np.vstack((A_ub, -A_ub[:1]))
        b_ub = np.append(b_ub, -(b_ub[0] + 1.0))
    if kind == "crossed":
        j = int(rng.integers(n))
        lower[j], upper[j] = upper[j], lower[j]

    def flavored(matrix: np.ndarray, sparse: bool):
        return sp.csr_matrix(matrix) if sparse else matrix

    A_ub = flavored(A_ub, flavor != "dense")
    A_eq = flavored(A_eq, flavor == "csr")
    return kind, (c, A_ub, b_ub, A_eq, b_eq), lower, upper


@pytest.mark.parametrize("seed", SEEDS)
def test_random_lp_is_bit_identical_to_linprog(seed):
    kind, inputs, lower, upper = random_lp(seed)
    expected = oracle(*inputs, lower, upper)
    assert expected is not None
    assert_bit_identical(LpRelaxation(*inputs).solve(lower, upper), expected)
    statuses = {"infeasible": "infeasible", "crossed": "infeasible", "unbounded": "unbounded"}
    assert expected.status == statuses.get(kind, "optimal")


def _tiny_sweep_node_lps(monkeypatch) -> list[tuple[tuple, np.ndarray, np.ndarray, LpResult]]:
    """Every node LP the tiny sweep solves, on either thread: inputs, bounds, result."""
    nodes: list[tuple[tuple, np.ndarray, np.ndarray, LpResult]] = []

    class Recording(LpRelaxation):
        def __init__(self, *inputs):
            super().__init__(*inputs)
            self.inputs = inputs

        def run(self, lower, upper):
            result = super().run(lower, upper)
            nodes.append((self.inputs, lower.copy(), upper.copy(), result))
            return result

    monkeypatch.setattr(branch_and_bound, "LpRelaxation", Recording)
    fractions = [
        round(0.1 + 0.8 * i / (TINY_SWEEP_POINTS - 1), 4) for i in range(TINY_SWEEP_POINTS)
    ]
    budget_sweep(
        synthetic_model(**TINY_SWEEP_MODEL),
        fractions,
        UtilityWeights(),
        backend="branch-and-bound",
        presolve=True,
        workers=1,
    )
    assert nodes
    return nodes


def test_node_lps_of_the_tiny_sweep_are_bit_identical_to_linprog(monkeypatch):
    for inputs, lower, upper, result in _tiny_sweep_node_lps(monkeypatch):
        expected = oracle(*inputs, lower, upper)
        assert expected is not None
        assert_bit_identical(result, expected)


def test_node_lps_of_the_tiny_sweep_on_a_helper_thread_match_the_main_thread(monkeypatch):
    nodes = _tiny_sweep_node_lps(monkeypatch)
    monkeypatch.undo()
    with ThreadPoolExecutor(1) as helper:
        for inputs, lower, upper, recorded in nodes:
            # Both threads solve the node at once, as a sibling pair does.
            relaxation = LpRelaxation(*inputs)
            on_helper = helper.submit(relaxation.run, lower, upper)
            on_main = relaxation.solve(lower, upper)
            assert_bit_identical(on_helper.result(), on_main)
            assert_bit_identical(on_main, recorded)


def _perturbed_highs(perturb):
    """A stand-in for the HiGHS module whose solutions are read back perturbed."""

    class Highs:
        def __init__(self):
            self._inner = _core._Highs()

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def getSolution(self):
            solution = self._inner.getSolution()
            solution.col_value = perturb(np.array(solution.col_value))
            return solution

    return types.SimpleNamespace(**{**vars(_core), "_Highs": Highs})


#: min -x0 - x1  st  x0 + x1 <= 1.5,  x0 - x1 == 0,  0 <= x <= 1.  The
#: optimum (0.75, 0.75) has both rows tight and both bounds loose.
CHECKED_LP = (
    np.array([-1.0, -1.0]),
    np.array([[1.0, 1.0]]),
    np.array([1.5]),
    np.array([[1.0, -1.0]]),
    np.array([0.0]),
)


def _nan_first(x):
    x[0] = np.nan
    return x


@pytest.mark.parametrize(
    ("perturb", "passes"),
    [
        pytest.param(lambda x: x + 1e-5, True, id="within-tolerance"),
        pytest.param(lambda x: x + 0.005, False, id="inequality-row"),
        pytest.param(lambda x: x + np.array([0.005, -0.005]), False, id="equality-row"),
        pytest.param(lambda x: x - 0.76, False, id="bound"),
        pytest.param(_nan_first, False, id="nan"),
    ],
)
def test_post_solve_check_rejects_points_outside_tolerance(monkeypatch, perturb, passes):
    lower, upper = np.zeros(2), np.ones(2)
    exact = solve_lp(*CHECKED_LP, lower, upper)
    assert exact.is_optimal
    monkeypatch.setattr(lp_module, "_highs", _perturbed_highs(perturb))
    if passes:
        assert solve_lp(*CHECKED_LP, lower, upper).x.tobytes() == perturb(exact.x).tobytes()
    else:
        with pytest.raises(SolverError, match="violates"):
            solve_lp(*CHECKED_LP, lower, upper)


def test_every_highs_solve_is_counted_and_traced():
    with obs.capture() as cap:
        branch_and_bound.solve_branch_and_bound(knapsack_model())
    solves = cap.registry.counter("solver.lp.solves").value
    spans = []
    stack = list(cap.tracer.roots)
    while stack:
        span = stack.pop()
        spans.append(span.name)
        stack.extend(span.children)
    assert solves >= 1
    assert spans.count("solver.lp") == solves


def test_cached_solves_count_only_misses():
    model = knapsack_model()
    cache: dict = {}
    branch_and_bound.solve_branch_and_bound(model, lp_cache=cache)
    with obs.capture() as cap:
        branch_and_bound.solve_branch_and_bound(model, lp_cache=cache)
    registry = cap.registry
    assert registry.counter("solver.lp_cache.hits").value >= 1
    assert registry.counter("solver.lp.solves").value == registry.counter(
        "solver.lp_cache.misses"
    ).value
