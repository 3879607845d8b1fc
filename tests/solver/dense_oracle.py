"""Dense reference implementations the sparse solver core is pinned against.

The production solver core is CSR end to end and runs one bitset
dominance engine.  This module holds the dense counterparts the
differential suites compare it with — test-only, never imported by
``src/``:

* :func:`to_dense` — a ``float64`` ndarray copy of a CSR matrix;
* :func:`dense_compile` — the standard form built straight from
  ``model.constraints`` with one ``np.zeros(n)`` row per constraint,
  independent of the compile row memo and of :func:`csr_from_rows`;
* :func:`dominated_dense` — the vectorized dominated-column engine over
  a materialized candidate submatrix.  It has the signature of
  ``_Reducer._dominated_bitset`` so a test can monkeypatch it in and
  compare fixings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.solver.expressions import ConstraintSense
from repro.solver.model import MilpModel, ObjectiveSense

__all__ = ["DenseForm", "dense_compile", "dominated_dense", "to_dense"]


def to_dense(matrix: sp.spmatrix) -> np.ndarray:
    """A dense ``float64`` copy of ``matrix``."""
    return np.asarray(matrix.todense(), dtype=np.float64)


@dataclass(frozen=True)
class DenseForm:
    """A standard form whose constraint matrices are plain ndarrays."""

    c: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    objective_constant: float
    maximize: bool


def dense_compile(model: MilpModel) -> DenseForm:
    """Compile ``model`` to dense standard (minimization) form.

    Same conventions as :meth:`MilpModel.compile`: ``GE`` rows are
    negated into ``LE`` rows and a maximization objective is negated.
    """
    variables = model.variables
    n = len(variables)
    maximize = model.sense is ObjectiveSense.MAXIMIZE
    c = np.zeros(n)
    for var, coef in model.objective.terms.items():
        c[var.index] = coef
    if maximize:
        c = -c
    ub_rows: list[np.ndarray] = []
    ub_rhs: list[float] = []
    eq_rows: list[np.ndarray] = []
    eq_rhs: list[float] = []
    for constraint in model.constraints:
        row = np.zeros(n)
        for var, coef in constraint.expression.terms.items():
            row[var.index] = coef
        rhs = constraint.rhs
        if constraint.sense is ConstraintSense.GE:
            row, rhs = -row, -rhs
        if constraint.sense is ConstraintSense.EQ:
            eq_rows.append(row)
            eq_rhs.append(rhs)
        else:
            ub_rows.append(row)
            ub_rhs.append(rhs)
    return DenseForm(
        c=c,
        A_ub=np.array(ub_rows).reshape(len(ub_rows), n),
        b_ub=np.array(ub_rhs, dtype=np.float64),
        A_eq=np.array(eq_rows).reshape(len(eq_rows), n),
        b_eq=np.array(eq_rhs, dtype=np.float64),
        lower=np.array([v.lower for v in variables], dtype=np.float64),
        upper=np.array([v.upper for v in variables], dtype=np.float64),
        integrality=np.array([v.is_integral for v in variables], dtype=bool),
        objective_constant=model.objective.constant,
        maximize=maximize,
    )


def dominated_dense(self, cand: np.ndarray, rows: np.ndarray) -> bool:
    """Vectorized dominance over a materialized candidate submatrix.

    ``self`` is a presolve ``_Reducer``; fixes the same columns as its
    bitset engine by testing the same four conditions densely.
    """
    tol = 1e-12
    M = (
        np.asarray(self.A_ub[rows][:, cand].todense())
        if rows.size
        else np.empty((0, cand.size))
    )
    _, max_act = self._activity_bounds_ub(rows) if rows.size else (None, np.empty(0))
    b = self.b_ub[rows]
    c = self.c[cand]
    maxpos = np.maximum(M, 0.0)  # binary columns: max contribution
    alive = np.ones(cand.size, dtype=bool)
    changed = False
    for jj in range(cand.size):
        if not alive[jj]:
            continue
        col_j = M[:, jj]
        cond_rows = np.all(col_j[:, None] <= M + tol, axis=0)
        cond_c = (c[jj] <= c + tol) & (c >= -tol)
        # Rows where k helps must survive "j in, k out".
        excl = max_act[:, None] - maxpos[:, jj][:, None] - maxpos + col_j[:, None]
        cond_drop = np.where(M < 0, excl <= b[:, None] + tol, True).all(axis=0)
        equal = np.all(np.abs(M - col_j[:, None]) <= tol, axis=0) & (
            np.abs(c - c[jj]) <= tol
        )
        dominated = cond_rows & cond_c & cond_drop & alive
        dominated[jj] = False
        # Break exact ties by column order: only the later column drops.
        dominated &= ~equal | (np.arange(cand.size) > jj)
        for kk in np.flatnonzero(dominated):
            self.upper[cand[kk]] = 0.0
            alive[kk] = False
            self.stats.dominated_columns += 1
            changed = True
    return changed
