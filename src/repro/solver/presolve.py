"""Exact presolve: shrink a MILP without changing what it answers.

Budget sweeps, exact frontiers, and per-scenario robust solves hammer
the solvers with *families* of closely related instances; most of the
work in each instance is structure the solver rediscovers from scratch.
:func:`presolve` runs a reduction fixpoint over a compiled
:class:`~repro.solver.model.MilpModel` and returns a smaller model plus
the bookkeeping needed to lift any solution of the reduced model back to
the original variable space **exactly**:

* **forced fixings** — integer variables whose bounds collapse under
  constraint implication (a monitor whose cost alone exceeds a budget
  dimension, a selection forced by a ``>=`` row);
* **singleton rows** — one-variable constraints become bounds and the
  row disappears;
* **redundant rows** — rows satisfied by the variable bounds alone are
  dropped;
* **duplicate rows** — rows with identical coefficients merge into the
  tightest right-hand side;
* **dominated columns** — a binary column k is fixed to 0 when another
  binary column j is at least as useful in every row and no cheaper
  optimum needs k (the "coverage subset at >= cost" monitor pattern;
  the row-wise test below is the exact, conservative generalization).

Every reduction preserves the optimal objective value; fixings preserve
the full feasible set except dominated-column elimination, which
preserves at least one optimal solution (the proof is the classic swap
argument, spelled out at :meth:`_Reducer.fix_dominated_columns`).
Solutions of the reduced model lift back through
:meth:`PresolveResult.lift_solution` with the objective untouched — the
reduced model's objective carries the fixed variables' contribution in
its constant term, so backends already report the full-model objective.

The reducer works on the compiled **CSR matrices** directly.  The
dominated-column rule runs one bitset-prefiltered sparse engine that
stays tractable at catalog scale (thousands of monitor columns); only
past :data:`SPARSE_DOMINANCE_WORK_LIMIT` is the rule skipped.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as _sp

from repro import obs
from repro.solver.expressions import ConstraintSense, LinearExpression, VarKind
from repro.solver.model import (
    MilpModel,
    ObjectiveSense,
    Solution,
    SolutionStatus,
    StandardForm,
)
from repro.solver.sparse import pack_bitset

__all__ = [
    "PresolveStatus",
    "PresolveStats",
    "PresolveResult",
    "presolve",
]

#: Feasibility tolerance for activity-bound reasoning.
FEASIBILITY_TOLERANCE = 1e-9

#: Tolerance when snapping implied integer bounds to integers.
INTEGRALITY_TOLERANCE = 1e-6

#: The dominance engine's prefilter is O(binaries^2 * rows/64) uint64
#: word operations; above this the rule is skipped outright (counted,
#: never silent).  At 2000 monitors / 4000 rows the prefilter is ~3e8
#: word ops — well inside; a 20k-column pathology is not.
SPARSE_DOMINANCE_WORK_LIMIT = 4_000_000_000

#: Fixpoint iteration cap (each round applies every rule once).
_MAX_ROUNDS = 25


class PresolveStatus(str, enum.Enum):
    """Terminal state of a presolve pass."""

    REDUCED = "reduced"  # a (possibly smaller) model remains to be solved
    SOLVED = "solved"  # every variable was fixed; the solution is known
    INFEASIBLE = "infeasible"  # bound/activity reasoning proved infeasibility


@dataclass
class PresolveStats:
    """What one presolve pass removed, for ratios and obs counters."""

    columns_before: int = 0
    columns_after: int = 0
    rows_before: int = 0
    rows_after: int = 0
    rounds: int = 0
    forced_fixings: int = 0
    dominated_columns: int = 0
    duplicate_rows: int = 0
    redundant_rows: int = 0
    singleton_rows: int = 0
    dominance_skipped: bool = False
    sparse_dominance_rounds: int = 0

    @property
    def columns_removed(self) -> int:
        return self.columns_before - self.columns_after

    @property
    def rows_removed(self) -> int:
        return self.rows_before - self.rows_after

    def to_dict(self) -> dict[str, int]:
        return {
            "columns_before": self.columns_before,
            "columns_after": self.columns_after,
            "rows_before": self.rows_before,
            "rows_after": self.rows_after,
            "rounds": self.rounds,
            "forced_fixings": self.forced_fixings,
            "dominated_columns": self.dominated_columns,
            "duplicate_rows": self.duplicate_rows,
            "redundant_rows": self.redundant_rows,
            "singleton_rows": self.singleton_rows,
            "dominance_skipped": int(self.dominance_skipped),
            "sparse_dominance_rounds": self.sparse_dominance_rounds,
        }


@dataclass
class PresolveResult:
    """A reduced model plus the uncrush map back to the original space."""

    original: MilpModel
    status: PresolveStatus
    reduced: MilpModel | None
    fixed: dict[str, float]
    stats: PresolveStats
    form: StandardForm = field(repr=False, default=None)  # original compiled form

    def lift(self, values: Mapping[str, float]) -> dict[str, float]:
        """Reduced-space values + fixed values -> full original-space values."""
        merged = dict(self.fixed)
        merged.update(values)
        return {v.name: merged[v.name] for v in self.original.variables}

    def verdict(self) -> Solution | None:
        """The answer presolve already proved, or ``None`` if a model remains.

        INFEASIBLE and SOLVED passes answer on their own, stamped with
        backend ``"presolve"``; a REDUCED pass leaves :attr:`reduced` for
        a backend to solve and :meth:`lift_solution` to map back.
        """
        if self.status is PresolveStatus.INFEASIBLE:
            return Solution(SolutionStatus.INFEASIBLE, float("nan"), {}, "presolve")
        if self.status is PresolveStatus.SOLVED:
            values = self.lift({})
            return Solution(
                SolutionStatus.OPTIMAL, self.original.objective_value(values), values, "presolve"
            )
        return None

    def lift_solution(self, solution: Solution) -> Solution:
        """Lift a reduced-model :class:`Solution` to the original space.

        The objective is carried over unchanged: the reduced model's
        objective constant already includes the fixed variables'
        contribution, so backends report the full-model value.  Every
        field but ``values`` (the fallback chain's ``attempts`` too)
        carries over as is.
        """
        if not solution.values:
            return solution
        return replace(solution, values=self.lift(solution.values))


def _publish_counters(stats: PresolveStats) -> None:
    obs.counter("presolve.runs").inc()
    obs.counter("presolve.columns_before").inc(stats.columns_before)
    obs.counter("presolve.columns_after").inc(stats.columns_after)
    obs.counter("presolve.rows_before").inc(stats.rows_before)
    obs.counter("presolve.rows_after").inc(stats.rows_after)
    obs.counter("presolve.forced_fixings").inc(stats.forced_fixings)
    obs.counter("presolve.dominated_columns").inc(stats.dominated_columns)
    obs.counter("presolve.duplicate_rows").inc(stats.duplicate_rows)
    obs.counter("presolve.redundant_rows").inc(stats.redundant_rows)
    obs.counter("presolve.singleton_rows").inc(stats.singleton_rows)


class _Infeasible(Exception):
    """Internal signal: activity reasoning proved the model infeasible."""


def _pair_dominates(
    rows_j: np.ndarray,
    vals_j: np.ndarray,
    rows_k: np.ndarray,
    vals_k: np.ndarray,
    max_act: np.ndarray,
    b: np.ndarray,
    tol: float,
) -> tuple[bool, bool]:
    """Exact dominance check of column j over column k by support merge.

    Walks the two sorted supports together; rows outside both supports
    compare ``0 <= 0`` and are skipped by construction.  Returns
    ``(dominates, columns_exactly_equal)``; the equality flag feeds the
    caller's tie-breaking (costs are compared there).
    """
    i = t = 0
    nj, nk = rows_j.size, rows_k.size
    equal = nj == nk
    while i < nj or t < nk:
        if t >= nk or (i < nj and rows_j[i] < rows_k[t]):
            r, aj, ak = int(rows_j[i]), float(vals_j[i]), 0.0
            i += 1
            equal = False
        elif i >= nj or rows_k[t] < rows_j[i]:
            r, aj, ak = int(rows_k[t]), 0.0, float(vals_k[t])
            t += 1
            equal = False
        else:
            r, aj, ak = int(rows_j[i]), float(vals_j[i]), float(vals_k[t])
            i += 1
            t += 1
            if abs(aj - ak) > tol:
                equal = False
        if aj > ak + tol:
            return False, False  # condition 2 fails on row r
        if ak < 0 and max_act[r] + min(aj, 0.0) > b[r] + tol:
            return False, False  # condition 4 fails: k's help irreplaceable
    return True, equal


class _Reducer:
    """Mutable working state of one presolve pass (minimization form).

    The coefficient matrices are the compiled canonical CSR, shared
    with :attr:`form`.  Reductions never touch coefficients — only rhs
    vectors, bounds, and the active-row masks — so the matrices (and
    their cached sign splits) are immutable for the reducer's whole
    lifetime.
    """

    def __init__(self, model: MilpModel):
        self.model = model
        self.form = model.compile()
        form = self.form
        self.c = form.c.copy()
        self.A_ub = form.A_ub
        self.b_ub = form.b_ub.copy()
        self.A_eq = form.A_eq
        self.b_eq = form.b_eq.copy()
        self.lower = form.lower.copy()
        self.upper = form.upper.copy()
        self.integral = form.integrality.copy()
        self.active_ub = np.ones(len(self.b_ub), dtype=bool)
        self.active_eq = np.ones(len(self.b_eq), dtype=bool)
        # Sign splits of the coefficient matrices, shared by every
        # activity computation.  ``minimum(0)`` equals the historical
        # ``A - maximum(A, 0)`` cell for cell, without densifying.
        self._pos_ub = self.A_ub.maximum(0.0)
        self._neg_ub = self.A_ub.minimum(0.0)
        self._pos_eq = self.A_eq.maximum(0.0)
        self._neg_eq = self.A_eq.minimum(0.0)
        self.stats = PresolveStats(
            columns_before=form.num_variables,
            rows_before=len(self.b_ub) + len(self.b_eq),
        )
        # Snap integer bounds onto the lattice up front.
        with np.errstate(invalid="ignore"):
            # ``+ 0.0`` normalizes the -0.0 that ceil(-epsilon) produces.
            self.lower[self.integral] = (
                np.ceil(self.lower[self.integral] - INTEGRALITY_TOLERANCE) + 0.0
            )
            self.upper[self.integral] = (
                np.floor(self.upper[self.integral] + INTEGRALITY_TOLERANCE) + 0.0
            )
        if np.any(self.lower > self.upper):
            raise _Infeasible

    # -- helpers -----------------------------------------------------------

    @property
    def fixed_mask(self) -> np.ndarray:
        return self.lower == self.upper

    def _activity_bounds_ub(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Min/max row activity of the selected ub rows under current bounds.

        Computed as full-matrix CSR matvecs over the cached sign splits
        and then sliced: a matvec only *reads* the matrix and touches
        only stored nonzeros, which beats materializing a row subset.
        """
        min_act = self._pos_ub @ self.lower + self._neg_ub @ self.upper
        max_act = self._pos_ub @ self.upper + self._neg_ub @ self.lower
        return min_act[rows], max_act[rows]

    def _activity_bounds_eq(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Min/max row activity of the selected eq rows under current bounds."""
        min_act = self._pos_eq @ self.lower + self._neg_eq @ self.upper
        max_act = self._pos_eq @ self.upper + self._neg_eq @ self.lower
        return min_act[rows], max_act[rows]

    def _tighten(self, j: int, *, new_lower: float | None = None, new_upper: float | None = None) -> bool:
        """Apply an implied bound; returns True when it changed anything."""
        changed = False
        if new_upper is not None:
            if self.integral[j]:
                new_upper = math.floor(new_upper + INTEGRALITY_TOLERANCE)
            if new_upper < self.upper[j] - FEASIBILITY_TOLERANCE:
                self.upper[j] = new_upper
                changed = True
        if new_lower is not None:
            if self.integral[j]:
                new_lower = math.ceil(new_lower - INTEGRALITY_TOLERANCE)
            if new_lower > self.lower[j] + FEASIBILITY_TOLERANCE:
                self.lower[j] = new_lower
                changed = True
        if self.lower[j] > self.upper[j]:
            raise _Infeasible
        return changed

    # -- reduction rules ---------------------------------------------------

    def drop_redundant_and_check(self) -> bool:
        """Remove always-satisfied rows; raise on provably violated ones."""
        changed = False
        tol = FEASIBILITY_TOLERANCE
        if self.active_ub.any():
            idx = np.flatnonzero(self.active_ub)
            min_act, max_act = self._activity_bounds_ub(idx)
            if np.any(min_act > self.b_ub[idx] + tol):
                raise _Infeasible
            redundant = max_act <= self.b_ub[idx] + tol
            if redundant.any():
                self.active_ub[idx[redundant]] = False
                self.stats.redundant_rows += int(redundant.sum())
                changed = True
        if self.active_eq.any():
            idx = np.flatnonzero(self.active_eq)
            min_act, max_act = self._activity_bounds_eq(idx)
            rhs = self.b_eq[idx]
            if np.any(min_act > rhs + tol) or np.any(max_act < rhs - tol):
                raise _Infeasible
            pinned = max_act - min_act <= tol  # constant row equal to rhs
            if pinned.any():
                self.active_eq[idx[pinned]] = False
                self.stats.redundant_rows += int(pinned.sum())
                changed = True
        return changed

    def propagate_bounds(self) -> bool:
        """Implied-bound tightening; integers may collapse to fixings.

        Continuous variables are tightened only through singleton rows
        (where the row *is* the bound, so the row is dropped too);
        integral variables tighten under every row.  Both directions
        preserve the feasible set exactly.
        """
        changed = False
        fixed_before = int(self.fixed_mask.sum())
        ub_indptr, ub_indices, ub_data = (
            self.A_ub.indptr,
            self.A_ub.indices,
            self.A_ub.data,
        )
        for i in np.flatnonzero(self.active_ub):
            cols = ub_indices[ub_indptr[i] : ub_indptr[i + 1]]
            vals = ub_data[ub_indptr[i] : ub_indptr[i + 1]]
            if cols.size == 0:
                if -FEASIBILITY_TOLERANCE > self.b_ub[i]:
                    raise _Infeasible
                self.active_ub[i] = False
                continue
            pos = np.maximum(vals, 0.0)
            neg = np.minimum(vals, 0.0)
            min_act = float(pos @ self.lower[cols] + neg @ self.upper[cols])
            unfixed = [t for t in range(cols.size) if self.lower[cols[t]] != self.upper[cols[t]]]
            if len(unfixed) == 1:
                t = unfixed[0]
                j = int(cols[t])
                a = float(vals[t])
                min_others = min_act - (a * self.lower[j] if a > 0 else a * self.upper[j])
                bound = (self.b_ub[i] - min_others) / a
                if a > 0:
                    changed |= self._tighten(j, new_upper=bound)
                else:
                    changed |= self._tighten(j, new_lower=bound)
                self.active_ub[i] = False
                self.stats.singleton_rows += 1
                changed = True
                continue
            for t in unfixed:
                j = int(cols[t])
                if not self.integral[j]:
                    continue
                a = float(vals[t])
                min_others = min_act - (a * self.lower[j] if a > 0 else a * self.upper[j])
                bound = (self.b_ub[i] - min_others) / a
                if a > 0:
                    changed |= self._tighten(j, new_upper=bound)
                else:
                    changed |= self._tighten(j, new_lower=bound)
        eq_indptr, eq_indices, eq_data = (
            self.A_eq.indptr,
            self.A_eq.indices,
            self.A_eq.data,
        )
        for i in np.flatnonzero(self.active_eq):
            cols = eq_indices[eq_indptr[i] : eq_indptr[i + 1]]
            vals = eq_data[eq_indptr[i] : eq_indptr[i + 1]]
            unfixed = [t for t in range(cols.size) if self.lower[cols[t]] != self.upper[cols[t]]]
            if len(unfixed) == 1:
                t = unfixed[0]
                j = int(cols[t])
                a = float(vals[t])
                others = float(vals @ self.lower[cols]) - a * self.lower[j]
                value = (self.b_eq[i] - others) / a
                if self.integral[j] and abs(value - round(value)) > INTEGRALITY_TOLERANCE:
                    raise _Infeasible
                self._tighten(j, new_lower=value, new_upper=value)
                if self.lower[j] != self.upper[j]:
                    # Bounds already excluded the forced value.
                    if not (
                        self.lower[j] - FEASIBILITY_TOLERANCE
                        <= value
                        <= self.upper[j] + FEASIBILITY_TOLERANCE
                    ):
                        raise _Infeasible
                    self.lower[j] = self.upper[j] = (
                        round(value) if self.integral[j] else value
                    )
                self.active_eq[i] = False
                self.stats.singleton_rows += 1
                changed = True
        self.stats.forced_fixings += int(self.fixed_mask.sum()) - fixed_before
        return changed

    def merge_duplicate_rows(self) -> bool:
        """Collapse ub rows with identical unfixed coefficients."""
        idx = np.flatnonzero(self.active_ub)
        if idx.size < 2:
            return False
        unfixed = ~self.fixed_mask
        fixed_values = np.where(self.fixed_mask, self.lower, 0.0)
        # fixed_values is zero on unfixed columns, so the full matvec
        # equals the historical fixed-column-sliced product.
        eff_b = self.b_ub[idx] - self.A_ub[idx] @ fixed_values
        indptr, indices, data = self.A_ub.indptr, self.A_ub.indices, self.A_ub.data
        groups: dict[tuple[bytes, bytes], int] = {}
        changed = False
        for pos, i in enumerate(idx):
            cols = indices[indptr[i] : indptr[i + 1]]
            vals = data[indptr[i] : indptr[i + 1]]
            sel = unfixed[cols]
            # (sorted columns, values) restricted to unfixed variables
            # identifies the dense restriction exactly — stored rows
            # carry no explicit zeros.
            key = (cols[sel].tobytes(), vals[sel].tobytes())
            keep = groups.get(key)
            if keep is None:
                groups[key] = pos
                continue
            # Same linear part: keep the tighter effective rhs on the
            # first row, drop the duplicate.
            keep_i = idx[keep]
            if eff_b[pos] < eff_b[keep]:
                shift = self.b_ub[keep_i] - eff_b[keep]  # fixed contribution
                self.b_ub[keep_i] = eff_b[pos] + shift
                eff_b[keep] = eff_b[pos]
            self.active_ub[i] = False
            self.stats.duplicate_rows += 1
            changed = True
        return changed

    def fix_dominated_columns(self) -> bool:
        """Fix dominated binary columns to 0 (exact, never heuristic).

        Binary column ``k`` is dominated by binary column ``j`` when
        (minimization convention, LE rows):

        1. ``c_j <= c_k`` — selecting j never costs more;
        2. ``A[r, j] <= A[r, k]`` for every active row — j consumes no
           more slack anywhere and helps at least as much where
           coefficients are negative;
        3. ``c_k >= 0`` — dropping k alone never improves the objective
           it abandons (covers the case where j is *already* selected);
        4. for every row where ``A[r, k] < 0`` (rows k "helps"), the row
           stays satisfiable with j selected and k dropped:
           ``max-activity excluding j and k, plus A[r, j] <= b_r``.

        Given any feasible solution with ``x_k = 1``: if ``x_j = 0``,
        swapping k for j keeps every row (2) and the objective (1); if
        ``x_j = 1``, dropping k keeps rows with ``A[r,k] >= 0`` (slack
        only grows), keeps rows with ``A[r,k] < 0`` by (4), and the
        objective by (3).  Hence at least one optimum has ``x_k = 0``.
        Exact ties are broken by column order so mutual domination
        removes exactly one of the pair.  Equality constraints opt a
        column out of both roles — the swap argument needs slack.

        The engine (:meth:`_dominated_bitset`) never materializes the
        candidate submatrix: uint64 row-support bitsets prefilter
        (dominance forces ``pos(j) ⊆ pos(k)`` and ``neg(k) ⊆ neg(j)``),
        and only prefilter survivors pay an exact two-pointer merge over
        their supports.  This is the reduction that actually collapses
        thousands-of-monitor catalogs: a monitor whose evidence is
        covered by a no-more-expensive rival is proven droppable before
        the solver ever branches.
        """
        unfixed = ~self.fixed_mask
        binary = (
            self.integral
            & (self.lower == 0.0)
            & (self.upper == 1.0)
            & unfixed
        )
        if self.active_eq.any():
            eq_sub = self.A_eq[np.flatnonzero(self.active_eq)]
            binary[np.unique(eq_sub.indices)] = False
        cand = np.flatnonzero(binary)
        if cand.size < 2:
            return False
        rows = np.flatnonzero(self.active_ub)
        words = max(1, -(-max(rows.size, 1) // 64))
        if cand.size * cand.size * words > SPARSE_DOMINANCE_WORK_LIMIT:
            if not self.stats.dominance_skipped:
                self.stats.dominance_skipped = True
                obs.counter("presolve.dominance_skipped").inc()
            return False
        self.stats.sparse_dominance_rounds += 1
        obs.counter("presolve.dominance_sparse_rounds").inc()
        return self._dominated_bitset(cand, rows)

    def _dominated_bitset(self, cand: np.ndarray, rows: np.ndarray) -> bool:
        """Bitset-prefiltered dominance over the candidate columns.

        Visits dominators ``jj`` in ascending order under an alive mask:
        a column once fixed neither dominates nor is fixed again, so the
        fixed set is a pure function of the column order.  Condition 2
        over *all* rows is equivalent to the two-pointer merge over the
        union of supports (rows outside both supports compare 0 <= 0),
        and condition 4's exclusion term collapses to
        ``max_act[r] + min(A[r,j], 0) <= b[r]`` on rows where k helps,
        because ``A[r,k] < 0`` zeroes k's max-contribution term.
        """
        tol = 1e-12
        sub = self.A_ub[rows][:, cand].tocsc() if rows.size else _sp.csc_matrix((0, cand.size))
        sub.sort_indices()
        _, max_act = self._activity_bounds_ub(rows) if rows.size else (None, np.empty(0))
        b = self.b_ub[rows]
        c = self.c[cand]
        col_rows: list[np.ndarray] = []
        col_vals: list[np.ndarray] = []
        for kk in range(cand.size):
            s, e = sub.indptr[kk], sub.indptr[kk + 1]
            col_rows.append(sub.indices[s:e])
            col_vals.append(sub.data[s:e])
        neg_bits = pack_bitset(
            [r[v < 0] for r, v in zip(col_rows, col_vals)], max(rows.size, 1)
        )
        pos_bits = pack_bitset(
            [r[v > 0] for r, v in zip(col_rows, col_vals)], max(rows.size, 1)
        )
        alive = np.ones(cand.size, dtype=bool)
        changed = False
        for jj in range(cand.size):
            if not alive[jj]:
                continue
            # Prefilter: neg(k) ⊆ neg(j), pos(j) ⊆ pos(k), cost compatible.
            maybe = (
                ~np.any(neg_bits & ~neg_bits[jj], axis=1)
                & ~np.any(pos_bits[jj] & ~pos_bits, axis=1)
                & (c[jj] <= c + tol)
                & (c >= -tol)
                & alive
            )
            maybe[jj] = False
            for kk in np.flatnonzero(maybe):
                dominates, cols_equal = _pair_dominates(
                    col_rows[jj],
                    col_vals[jj],
                    col_rows[kk],
                    col_vals[kk],
                    max_act,
                    b,
                    tol,
                )
                if not dominates:
                    continue
                if cols_equal and abs(c[kk] - c[jj]) <= tol and kk < jj:
                    continue  # exact tie: only the later column drops
                self.upper[cand[kk]] = 0.0
                alive[kk] = False
                self.stats.dominated_columns += 1
                changed = True
        return changed

    # -- the fixpoint ------------------------------------------------------

    def run(self) -> None:
        for _ in range(_MAX_ROUNDS):
            self.stats.rounds += 1
            changed = self.drop_redundant_and_check()
            changed |= self.propagate_bounds()
            changed |= self.merge_duplicate_rows()
            changed |= self.fix_dominated_columns()
            if not changed:
                break

    # -- rebuild -----------------------------------------------------------

    def _row_names(self) -> tuple[list[str], list[str]]:
        """Original constraint names in compile() row order (ub, eq)."""
        ub_names: list[str] = []
        eq_names: list[str] = []
        for constraint in self.model.constraints:
            if constraint.sense is ConstraintSense.EQ:
                eq_names.append(constraint.name)
            else:
                ub_names.append(constraint.name)
        return ub_names, eq_names

    def build_result(self) -> PresolveResult:
        fixed_mask = self.fixed_mask
        fixed = {
            v.name: float(self.lower[v.index]) + 0.0  # normalize -0.0
            for v in self.model.variables
            if fixed_mask[v.index]
        }
        self.stats.columns_after = int((~fixed_mask).sum())
        self.stats.rows_after = int(self.active_ub.sum() + self.active_eq.sum())

        if self.stats.columns_after == 0:
            return PresolveResult(
                original=self.model,
                status=PresolveStatus.SOLVED,
                reduced=None,
                fixed=fixed,
                stats=self.stats,
                form=self.form,
            )

        maximize = self.model.sense is ObjectiveSense.MAXIMIZE
        c_model = -self.c if maximize else self.c
        reduced = MilpModel(f"{self.model.name}|presolved", self.model.sense)
        variables: dict[int, object] = {}
        for v in self.model.variables:
            j = v.index
            if fixed_mask[j]:
                continue
            if v.kind is VarKind.BINARY:
                variables[j] = reduced.binary(v.name)
            elif v.kind is VarKind.INTEGER:
                variables[j] = reduced.integer(v.name, float(self.lower[j]), float(self.upper[j]))
            else:
                variables[j] = reduced.continuous(
                    v.name, float(self.lower[j]), float(self.upper[j])
                )

        fixed_values = np.where(fixed_mask, self.lower, 0.0)
        constant = self.form.objective_constant + float(c_model @ fixed_values)
        terms = {
            variables[j]: float(c_model[j])
            for j in np.flatnonzero(~fixed_mask)
            if c_model[j] != 0.0
        }
        reduced.set_objective(LinearExpression(terms, constant))

        ub_names, eq_names = self._row_names()
        ub_indptr, ub_indices, ub_data = (
            self.A_ub.indptr,
            self.A_ub.indices,
            self.A_ub.data,
        )
        for i in np.flatnonzero(self.active_ub):
            cols = ub_indices[ub_indptr[i] : ub_indptr[i + 1]]
            vals = ub_data[ub_indptr[i] : ub_indptr[i + 1]]
            keep = [t for t in range(cols.size) if not fixed_mask[cols[t]]]
            rhs = float(self.b_ub[i] - vals @ fixed_values[cols])
            if not keep:
                if rhs < -FEASIBILITY_TOLERANCE:  # pragma: no cover - caught earlier
                    raise _Infeasible
                continue
            expr = LinearExpression.sum_of(
                (variables[int(cols[t])], float(vals[t])) for t in keep
            )
            reduced.add_constraint(expr <= rhs, name=ub_names[i] if i < len(ub_names) else "")
        eq_indptr, eq_indices, eq_data = (
            self.A_eq.indptr,
            self.A_eq.indices,
            self.A_eq.data,
        )
        for i in np.flatnonzero(self.active_eq):
            cols = eq_indices[eq_indptr[i] : eq_indptr[i + 1]]
            vals = eq_data[eq_indptr[i] : eq_indptr[i + 1]]
            keep = [t for t in range(cols.size) if not fixed_mask[cols[t]]]
            rhs = float(self.b_eq[i] - vals @ fixed_values[cols])
            if not keep:
                if abs(rhs) > FEASIBILITY_TOLERANCE:  # pragma: no cover - caught earlier
                    raise _Infeasible
                continue
            expr = LinearExpression.sum_of(
                (variables[int(cols[t])], float(vals[t])) for t in keep
            )
            reduced.add_constraint(expr == rhs, name=eq_names[i] if i < len(eq_names) else "")

        return PresolveResult(
            original=self.model,
            status=PresolveStatus.REDUCED,
            reduced=reduced,
            fixed=fixed,
            stats=self.stats,
            form=self.form,
        )


def presolve(model: MilpModel) -> PresolveResult:
    """Run the reduction fixpoint over ``model`` (never mutated).

    Every rule runs each round, for at most :data:`_MAX_ROUNDS` rounds.
    """
    with obs.span("solver.presolve", model=model.name) as sp:
        try:
            reducer = _Reducer(model)
            reducer.run()
            result = reducer.build_result()
        except _Infeasible:
            stats = PresolveStats(
                columns_before=model.num_variables,
                rows_before=model.num_constraints,
                columns_after=0,
                rows_after=0,
            )
            obs.counter("presolve.infeasible").inc()
            _publish_counters(stats)
            sp.set(status="infeasible")
            return PresolveResult(
                original=model,
                status=PresolveStatus.INFEASIBLE,
                reduced=None,
                fixed={},
                stats=stats,
            )
        _publish_counters(result.stats)
        sp.set(
            status=result.status.value,
            columns_removed=result.stats.columns_removed,
            rows_removed=result.stats.rows_removed,
        )
    return result

