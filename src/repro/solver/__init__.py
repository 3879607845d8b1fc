"""A from-scratch MILP substrate (expression DSL + exact solvers).

The paper's methodology requires an exact 0/1 integer-programming
solver.  This package provides one that is self-contained:

* an algebraic modeling layer (:mod:`repro.solver.expressions`,
  :mod:`repro.solver.model`) in the style of PuLP;
* a pure-Python **branch-and-bound** solver over scipy LP relaxations
  (:mod:`repro.solver.branch_and_bound`);
* a **HiGHS** backend via :func:`scipy.optimize.milp`
  (:mod:`repro.solver.scipy_backend`), the default for large instances.

:func:`solve` dispatches by backend name; ``"fallback"`` names the
backend chain (:mod:`repro.solver.fallback`), and ``presolve=True`` is
the one cold presolve → solve → lift path.  :class:`SolveSession` adds
warm state across a family of solves on top of the same dispatch.
"""

from repro.errors import SolverError
from repro.solver.branch_and_bound import solve_branch_and_bound
from repro.solver.fallback import DEFAULT_CHAIN, _solve_chain
from repro.solver.expressions import (
    Constraint,
    ConstraintSense,
    LinearExpression,
    Variable,
    VarKind,
)
from repro.solver.model import (
    BackendAttempt,
    MilpModel,
    ObjectiveSense,
    Solution,
    SolutionStatus,
    StandardForm,
)
from repro.solver.lpwriter import model_to_lp_string
from repro.solver.presolve import (
    PresolveResult,
    PresolveStats,
    PresolveStatus,
    presolve,
)
from repro.solver.presolve import presolve as _presolve
from repro.solver.scipy_backend import solve_scipy_milp
from repro.solver.session import SolveSession

__all__ = [
    "BackendAttempt",
    "Constraint",
    "ConstraintSense",
    "DEFAULT_CHAIN",
    "LinearExpression",
    "PresolveResult",
    "PresolveStats",
    "PresolveStatus",
    "SolveSession",
    "Variable",
    "VarKind",
    "MilpModel",
    "ObjectiveSense",
    "Solution",
    "SolutionStatus",
    "StandardForm",
    "presolve",
    "solve",
    "solve_branch_and_bound",
    "solve_scipy_milp",
    "model_to_lp_string",
    "BACKENDS",
]

#: Registered backend names accepted by :func:`solve`.
BACKENDS = ("scipy", "branch-and-bound", "fallback")


def solve(
    model: MilpModel,
    backend: str = "scipy",
    *,
    time_limit: float | None = None,
    max_nodes: int | None = None,
    gap: float | None = None,
    presolve: bool = False,
) -> Solution:
    """Solve ``model`` with the named backend.

    Parameters
    ----------
    model:
        The MILP to solve.
    backend:
        One of :data:`BACKENDS`.  ``"scipy"`` (HiGHS) is the default and
        the right choice for anything non-trivial; ``"branch-and-bound"``
        is the dependency-free exact solver; ``"fallback"`` tries the
        default chain (scipy, then branch-and-bound) and answers with
        the first viable backend — :attr:`Solution.backend` records
        which one, and :attr:`Solution.attempts` why any before it
        failed.
    time_limit:
        Wall-clock limit in seconds.
    max_nodes:
        Branch-and-bound node cap (HiGHS node limit on the scipy
        backend).  When it triggers, the best incumbent degrades to
        status ``FEASIBLE``.
    gap:
        Relative optimality gap at which an incumbent is accepted as
        optimal.
    presolve:
        Run the exact reduction pipeline (:mod:`repro.solver.presolve`)
        first and solve the reduced instance; the solution is lifted
        back to the original variable space.  A model presolve already
        decides (INFEASIBLE or fully fixed) answers with backend
        ``"presolve"`` before any backend, the fallback chain included,
        runs.
    """
    limits = dict(time_limit=time_limit, max_nodes=max_nodes, gap=gap)
    if presolve:
        pre = _presolve(model)
        verdict = pre.verdict()
        if verdict is not None:
            return verdict
        assert pre.reduced is not None
        return pre.lift_solution(solve(pre.reduced, backend, **limits))
    if backend == "scipy":
        return solve_scipy_milp(model, **limits)
    if backend == "branch-and-bound":
        return solve_branch_and_bound(model, **limits)
    if backend == "fallback":
        return _solve_chain(model, **limits)
    raise SolverError(f"unknown backend {backend!r}; expected one of {BACKENDS}")

