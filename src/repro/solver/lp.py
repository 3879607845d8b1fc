"""LP relaxations solved by direct calls into HiGHS.

The branch-and-bound backend solves the LP relaxation of one
:class:`~repro.solver.model.StandardForm` at every node, each time with
its own bound overrides.  :class:`LpRelaxation` builds what depends only
on the form once — the stacked column-wise matrix, the row bounds and
the HiGHS options — and each :meth:`LpRelaxation.solve` hands the HiGHS
binding that scipy ships exactly the model scipy's own LP front end
(``scipy.optimize``'s LP solver with ``method="highs"``) would: a cold
dual simplex solve with presolve on, no state carried from one node to
the next.  Statuses map as the front end maps them, and an optimal
point must pass the same post-solve feasibility check before it is
returned, so every node sees the same bits through either route.
:meth:`LpRelaxation.run` is that solve with no tracing, so a helper
thread can run it; :meth:`LpRelaxation.solve` wraps it in the
``solver.lp`` span and the ``solver.lp.solves`` counter.

The binding is scipy's ``scipy.optimize._highspy._core`` (scipy 1.15
and later).  Calling it directly skips what the front end repeats on
every call and no node reads: input cleaning, re-stacking the same
matrix, option validation, and building duals and bound marginals.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np
import scipy.sparse as _sp
from scipy.optimize._highspy import _core as _highs

from repro import obs
from repro.errors import SolverError

__all__ = ["CHECK_TOLERANCE", "LpRelaxation", "LpResult", "solve_lp"]

#: Post-solve feasibility tolerance: the front end's ``10 * sqrt(tol)``
#: at its default ``tol = 1e-9``.
CHECK_TOLERANCE = 10 * np.sqrt(1e-9)

_STATUS = _highs.HighsModelStatus


@dataclass(frozen=True, slots=True)
class LpResult:
    """Result of one LP relaxation solve (minimization convention)."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float
    x: np.ndarray | None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _highs_inf(values: np.ndarray) -> np.ndarray:
    """``values`` as float64 with ±inf spelled as HiGHS's ±``kHighsInf``."""
    values = np.array(values, dtype=np.float64)
    infinite = np.isinf(values)
    values[infinite] = np.sign(values[infinite]) * _highs.kHighsInf
    return values


def _stacked(n: int, blocks: list[tuple[np.ndarray | _sp.sparray, np.ndarray]]) -> _sp.csc_array:
    """``[A_ub; A_eq]`` in CSC, assembled the way the front end assembles it.

    A block is empty when its rhs is (CSR ``.size`` is nnz, and an
    all-zero row must still reach the solver).  Sparse and dense input
    take different routes — a dense block drops its zeros, a sparse one
    keeps its explicit entries — so the matrix HiGHS sees, entry order
    included, is the one the front end would have passed.
    """
    sparse = any(_sp.issparse(A) for A, b in blocks if b.size)
    if sparse:
        parts = [_sp.coo_array(A if b.size else (0, n), dtype=np.float64) for A, b in blocks]
        return _sp.csc_array(_sp.vstack(parts))
    parts = [np.asarray(A, dtype=np.float64) if b.size else np.zeros((0, n)) for A, b in blocks]
    return _sp.csc_array(np.vstack(parts))


class LpRelaxation:
    """The LP relaxation of one ``(c, A_ub, b_ub, A_eq, b_eq)`` instance.

    Minimizes ``c @ x`` subject to ``A_ub @ x <= b_ub`` and
    ``A_eq @ x == b_eq``, under bounds given per :meth:`solve`.  The
    blocks may be dense or CSR, and either may be empty.
    """

    def __init__(
        self,
        c: np.ndarray,
        A_ub: np.ndarray | _sp.csr_matrix,
        b_ub: np.ndarray,
        A_eq: np.ndarray | _sp.csr_matrix,
        b_eq: np.ndarray,
    ) -> None:
        self._c = np.array(c, dtype=np.float64).reshape(-1)
        self._b_ub = np.array(b_ub, dtype=np.float64).reshape(-1)
        self._b_eq = np.array(b_eq, dtype=np.float64).reshape(-1)
        n = self._c.size
        self._matrix = _stacked(n, [(A_ub, self._b_ub), (A_eq, self._b_eq)])
        a_matrix = _highs.HighsSparseMatrix()
        a_matrix.format_ = _highs.MatrixFormat.kColwise
        a_matrix.num_col_ = n
        a_matrix.num_row_ = self._matrix.shape[0]
        a_matrix.start_ = self._matrix.indptr
        a_matrix.index_ = self._matrix.indices
        a_matrix.value_ = self._matrix.data
        self._a_matrix = a_matrix
        self._row_lower = _highs_inf(
            np.concatenate((np.full(self._b_ub.size, -np.inf), self._b_eq))
        )
        self._row_upper = _highs_inf(np.concatenate((self._b_ub, self._b_eq)))
        # Exactly what the front end sets; nothing else.
        options = _highs.HighsOptions()
        options.presolve = "on"
        options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        options.output_flag = False
        options.log_to_console = False
        options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
        self._options = options

    def solve(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        pending: Future[LpResult] | None = None,
    ) -> LpResult:
        """Solve under column bounds ``lower <= x <= upper``, traced.

        Each call is one ``solver.lp`` span and one ``solver.lp.solves``
        count.  ``pending`` is a future already running :meth:`run` on
        these same bounds on another thread (branch and bound's sibling
        solve); the span then covers only the wait for it, and its
        error, if any, is raised here.
        """
        with obs.span("solver.lp"):
            obs.counter("solver.lp.solves").inc()
            return self.run(lower, upper) if pending is None else pending.result()

    def run(self, lower: np.ndarray, upper: np.ndarray) -> LpResult:
        """:meth:`solve` without the span and counter, safe on any thread.

        Infeasible (crossed bounds included) and unbounded are regular
        outcomes reported in the result; any other HiGHS status, or an
        "optimal" point that fails the post-solve check, raises
        :class:`~repro.errors.SolverError`.  Every call builds its own
        HiGHS instance and only reads the relaxation, so two threads may
        run at once; the binding releases the GIL while HiGHS works.
        """
        lp = _highs.HighsLp()
        lp.num_col_ = self._c.size
        lp.num_row_ = self._row_upper.size
        lp.a_matrix_ = self._a_matrix
        lp.col_cost_ = self._c
        lp.col_lower_ = _highs_inf(lower)
        lp.col_upper_ = _highs_inf(upper)
        lp.row_lower_ = self._row_lower
        lp.row_upper_ = self._row_upper
        highs = _highs._Highs()
        if highs.passOptions(self._options) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the LP options")
        if highs.passModel(lp) == _highs.HighsStatus.kError:
            # Crossed bounds: a model error, which the front end
            # reports as infeasible.
            return LpResult("infeasible", float("inf"), None)
        highs.run()
        status = highs.getModelStatus()
        if status == _STATUS.kOptimal:
            x = np.array(highs.getSolution().col_value)
            objective = highs.getInfo().objective_function_value
            if not self._feasible(x, objective, lower, upper):
                raise SolverError(
                    "HiGHS reported an optimal LP point that violates its rows or "
                    f"bounds by more than {CHECK_TOLERANCE:.2E}"
                )
            return LpResult("optimal", float(objective), x)
        if status in (_STATUS.kInfeasible, _STATUS.kModelError):
            return LpResult("infeasible", float("inf"), None)
        if status == _STATUS.kUnbounded:
            return LpResult("unbounded", float("-inf"), None)
        raise SolverError(f"HiGHS LP solve ended with status {highs.modelStatusToString(status)}")

    def _feasible(
        self, x: np.ndarray, objective: float, lower: np.ndarray, upper: np.ndarray
    ) -> bool:
        """The front end's post-solve check of an optimal point."""
        tol = CHECK_TOLERANCE
        rows = self._matrix @ x
        slack = self._b_ub - rows[: self._b_ub.size]
        residual = self._b_eq - rows[self._b_ub.size :]
        if np.isnan(objective) or any(np.isnan(v).any() for v in (x, slack, residual)):
            return False
        return bool(
            np.all((x >= lower - tol) & (x <= upper + tol))
            and not (slack < -tol).any()
            and not (np.abs(residual) > tol).any()
        )


def solve_lp(
    c: np.ndarray,
    A_ub: np.ndarray | _sp.csr_matrix,
    b_ub: np.ndarray,
    A_eq: np.ndarray | _sp.csr_matrix,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> LpResult:
    """Minimize ``c @ x`` subject to the given rows and bounds, once.

    A one-shot :class:`LpRelaxation`; callers that solve one instance
    under many bounds build the relaxation once instead.
    """
    return LpRelaxation(c, A_ub, b_ub, A_eq, b_eq).solve(lower, upper)
