"""A from-scratch branch-and-bound MILP solver.

Best-first search over LP relaxations: each node fixes tighter bounds on
the integral variables, the LP relaxation provides a dual bound, and
integral LP solutions become incumbents.  Branching selects the integral
variable whose relaxation value is most fractional (closest to 0.5),
which works well on the 0/1 covering structures this library generates.

This backend exists so the reproduction is self-contained — the paper's
methodology relies on an exact solver, and this one proves optimality
without any dependency beyond scipy's LP.  For large instances prefer
the HiGHS backend (:mod:`repro.solver.scipy_backend`); experiment F7
compares the two.

A solve is three steps: :func:`_root` (root relaxation, warm-start
incumbent, ``known_bound`` floor), :func:`_explore` (the best-first
loop) and :func:`_solution` (stop reason to :class:`Solution`).
:mod:`repro.solver.parallel_bb` runs the same three, stopping the loop
at a frontier of open nodes and exploring each in a worker, so both
solvers share one pruning rule, branching rule and incumbent test.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections.abc import Iterator, Mapping, MutableMapping
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import SolverError, UnboundedError
from repro.solver.lp import LpResult, solve_lp
from repro.solver.model import MilpModel, Solution, SolutionStatus, StandardForm

__all__ = ["solve_branch_and_bound"]

#: Absolute integrality tolerance: relaxation values this close to an
#: integer are treated as integral.
INTEGRALITY_TOLERANCE = 1e-6

#: Relative optimality gap at which the search stops early.
DEFAULT_GAP = 1e-9

#: Absolute feasibility tolerance for accepting a snapped-integral point
#: as an incumbent (matches the HiGHS MIP feasibility default).
FEASIBILITY_TOLERANCE = 1e-6

#: Backend name stamped on serial solutions.
_BACKEND = "branch-and-bound"


def _snapped_if_feasible(form: StandardForm, x: np.ndarray, integral_indices: np.ndarray) -> np.ndarray | None:
    """Round the integral entries of ``x``; None when rounding breaks a row.

    An LP point can sit within the integrality tolerance of an integer
    while the *rounded* point violates a tight constraint: rounding moves
    each coordinate by up to 1e-6, which a row with large coefficients
    (a budget cap in the thousands) amplifies past any LP feasibility
    margin.  Accepting such a point would report an infeasible
    "optimum", so the caller must branch instead.
    """
    snapped = x.copy()
    snapped[integral_indices] = np.round(snapped[integral_indices])
    tol = FEASIBILITY_TOLERANCE
    # Emptiness by rhs length (CSR .size is nnz); `A @ x` works for both
    # dense and sparse matrices and returns a dense vector either way.
    if form.b_ub.size and np.any(form.A_ub @ snapped > form.b_ub + tol):
        return None
    if form.b_eq.size and np.any(np.abs(form.A_eq @ snapped - form.b_eq) > tol):
        return None
    if np.any(snapped < form.lower - tol) or np.any(snapped > form.upper + tol):
        return None
    return snapped


def _most_fractional(x: np.ndarray, integral_indices: np.ndarray) -> int | None:
    """Index of the integral variable farthest from any integer, or None."""
    if integral_indices.size == 0:
        return None  # pure-LP node: integral by definition
    values = x[integral_indices]
    fractions = np.abs(values - np.round(values))
    worst = int(np.argmax(fractions))
    if fractions[worst] <= INTEGRALITY_TOLERANCE:
        return None
    return int(integral_indices[worst])


def _seed_incumbent(
    model: MilpModel, form: StandardForm, warm_start: Mapping[str, float]
) -> tuple[np.ndarray | None, float]:
    """Validate a warm-start assignment and turn it into an incumbent.

    An infeasible or incomplete assignment is rejected (counted, never
    fatal) — warm starts are an acceleration, not a contract.
    """
    try:
        feasible = model.is_feasible(warm_start)
    except SolverError:
        feasible = False
    if not feasible:
        obs.counter("solver.warm_start.rejected").inc()
        return None, float("inf")
    x = np.array([float(warm_start[var.name]) for var in model.variables])
    integral = np.flatnonzero(form.integrality)
    x[integral] = np.round(x[integral])
    obs.counter("solver.warm_start.accepted").inc()
    return x, float(form.c @ x)


def _relax(
    form: StandardForm,
    lower: np.ndarray,
    upper: np.ndarray,
    cache: MutableMapping[tuple[bytes, bytes], LpResult] | None,
) -> LpResult:
    """Solve a node's LP relaxation, via the cross-solve cache when given.

    The cache key is the node signature (the branching bounds); callers
    must scope a cache to one immutable ``(c, A, b)`` instance — the
    :class:`~repro.solver.session.SolveSession` keys its caches by the
    instance digest for exactly this reason.
    """
    if cache is None:
        return solve_lp(form.c, form.A_ub, form.b_ub, form.A_eq, form.b_eq, lower, upper)
    key = (lower.tobytes(), upper.tobytes())
    hit = cache.get(key)
    if hit is not None:
        obs.counter("solver.lp_cache.hits").inc()
        return hit
    obs.counter("solver.lp_cache.misses").inc()
    result = solve_lp(form.c, form.A_ub, form.b_ub, form.A_eq, form.b_eq, lower, upper)
    cache[key] = result
    return result


@dataclass
class _Search:
    """A best-first search in progress over one compiled form.

    Minimization convention throughout: ``incumbent_obj`` is ``+inf``
    until an incumbent exists, and ``bound_floor`` is ``-inf`` unless a
    proven dual bound was supplied.  Heap entries are ``(LP bound,
    tiebreak, lower bounds, upper bounds)``; ``counter`` hands out the
    tiebreaks in push order.
    """

    form: StandardForm
    incumbent_obj: float = float("inf")
    incumbent_x: np.ndarray | None = None
    bound_floor: float = float("-inf")
    nodes: int = 0
    heap: list[tuple[float, int, np.ndarray, np.ndarray]] = field(default_factory=list)
    counter: Iterator[int] = field(default_factory=itertools.count)

    def push(self, bound: float, lower: np.ndarray, upper: np.ndarray) -> None:
        heapq.heappush(self.heap, (bound, next(self.counter), lower, upper))


def _root(
    model: MilpModel,
    form: StandardForm,
    *,
    warm_start: Mapping[str, float] | None,
    known_bound: float | None,
    lp_cache: MutableMapping[tuple[bytes, bytes], LpResult] | None,
) -> _Search | None:
    """The shared root step: relaxation, warm-start incumbent, bound floor.

    Returns a search holding just the root node, or None when the root
    relaxation is infeasible; an unbounded relaxation raises.
    """
    root = _relax(form, form.lower, form.upper, lp_cache)
    if root.status == "infeasible":
        return None
    if root.status == "unbounded":
        raise UnboundedError(f"model {model.name!r} has an unbounded LP relaxation")
    search = _Search(form)
    if warm_start is not None:
        search.incumbent_x, search.incumbent_obj = _seed_incumbent(model, form, warm_start)
    # A proven dual bound from a looser sibling instance tightens every
    # node's bound.
    if known_bound is not None:
        search.bound_floor = form.minimized_from_model_sense(known_bound)
    search.push(root.objective, form.lower.copy(), form.upper.copy())
    return search


def _explore(
    search: _Search,
    *,
    gap: float,
    node_budget: int,
    deadline: float | None,
    lp_cache: MutableMapping[tuple[bytes, bytes], LpResult] | None,
    frontier_target: int | None = None,
) -> str:
    """The best-first loop; every branch-and-bound solve runs through it.

    Advances ``search`` in place and returns why it stopped:
    ``"exhausted"`` (heap empty), ``"gap"`` (the bound met the
    incumbent), ``"limit"`` (node budget or deadline), or
    ``"frontier"`` (the heap reached ``frontier_target`` open nodes —
    the split step of :mod:`repro.solver.parallel_bb`).
    """
    form, heap = search.form, search.heap
    integral_indices = np.flatnonzero(form.integrality)
    while heap:
        if frontier_target is not None and len(heap) >= frontier_target:
            return "frontier"
        bound, _, lower, upper = heapq.heappop(heap)
        # A node whose bound cannot beat the incumbent prunes the rest of
        # the heap too (best-first order), so we can stop entirely.
        if search.incumbent_x is not None:
            effective_bound = max(bound, search.bound_floor)
            incumbent_obj = search.incumbent_obj
            relative_gap = (incumbent_obj - effective_bound) / max(1.0, abs(incumbent_obj))
            if relative_gap <= gap:
                if effective_bound > bound:
                    obs.counter("solver.bound_floor.closures").inc()
                return "gap"

        search.nodes += 1
        if search.nodes > node_budget or (deadline is not None and time.monotonic() > deadline):
            return "limit"

        relaxation = _relax(form, lower, upper, lp_cache)
        if not relaxation.is_optimal:
            continue  # infeasible subtree
        if relaxation.objective >= search.incumbent_obj - 1e-12:
            continue  # cannot improve

        assert relaxation.x is not None
        branch_var = _most_fractional(relaxation.x, integral_indices)
        if branch_var is None:
            snapped = _snapped_if_feasible(form, relaxation.x, integral_indices)
            if snapped is not None:
                # Integral solution: new incumbent, valued at the
                # *snapped* point so the reported objective is exact.
                objective = float(form.c @ snapped)
                if objective < search.incumbent_obj:
                    search.incumbent_obj = objective
                    search.incumbent_x = snapped
                continue
            # Rounding broke a tight row.  Branch on the least-integral
            # variable anyway — both children exclude this LP point, so
            # the search separates the near-integer optimum from its
            # infeasible rounding.  Clip to the node bounds first: a
            # value epsilon *outside* its bound floors onto the bound,
            # which would recreate this very node.
            values = np.clip(
                relaxation.x[integral_indices],
                lower[integral_indices],
                upper[integral_indices],
            )
            fractions = np.abs(values - np.round(values))
            worst = int(np.argmax(fractions))
            if fractions[worst] == 0.0:
                # Exactly integral yet infeasible: the LP itself is out
                # of tolerance (not reachable in practice).  Branching
                # would recreate this node verbatim, so drop it.
                continue
            branch_var = int(integral_indices[worst])

        value = relaxation.x[branch_var]
        floor_val = np.floor(value)
        # Down branch: x <= floor(value)
        down_upper = upper.copy()
        down_upper[branch_var] = floor_val
        if lower[branch_var] <= floor_val:
            search.push(relaxation.objective, lower.copy(), down_upper)
        # Up branch: x >= ceil(value)
        up_lower = lower.copy()
        up_lower[branch_var] = floor_val + 1.0
        if up_lower[branch_var] <= upper[branch_var]:
            search.push(relaxation.objective, up_lower, upper.copy())

    return "exhausted"


def _solution(model: MilpModel, search: _Search | None, backend: str, stopped: str) -> Solution:
    """The :class:`Solution` a finished search reports.

    ``search is None`` is an infeasible root (one node).  Without an
    incumbent the status is ``INFEASIBLE``; a ``"limit"`` stop leaves
    the incumbent ``FEASIBLE``; any other stop proves it ``OPTIMAL``.
    """
    if search is None or search.incumbent_x is None:
        nodes = 1 if search is None else search.nodes
        return Solution(SolutionStatus.INFEASIBLE, float("nan"), {}, backend, nodes)
    form = search.form
    integral_indices = np.flatnonzero(form.integrality)
    rounded = search.incumbent_x.copy()
    rounded[integral_indices] = np.round(rounded[integral_indices])
    return Solution(
        status=SolutionStatus.FEASIBLE if stopped == "limit" else SolutionStatus.OPTIMAL,
        objective=form.objective_in_model_sense(search.incumbent_obj),
        values={var.name: float(v) for var, v in zip(model.variables, rounded)},
        backend=backend,
        nodes_explored=search.nodes,
    )


def solve_branch_and_bound(
    model: MilpModel,
    *,
    time_limit: float | None = None,
    max_nodes: int = 1_000_000,
    gap: float = DEFAULT_GAP,
    warm_start: Mapping[str, float] | None = None,
    known_bound: float | None = None,
    lp_cache: MutableMapping[tuple[bytes, bytes], LpResult] | None = None,
    dense: bool = False,
) -> Solution:
    """Solve ``model`` to proven optimality by branch and bound.

    Parameters
    ----------
    model:
        The MILP to solve.
    dense:
        Compile the constraint matrices densely instead of CSR.
        Retained for differential testing and the F14 before/after
        measurement; answers are bit-identical, only node bound
        computation cost changes.  Subject to the dense cell limit
        (:data:`~repro.solver.model.MAX_DENSE_CELLS`).
    time_limit:
        Wall-clock seconds after which the best incumbent is returned
        with status ``FEASIBLE`` (or ``INFEASIBLE`` if none was found).
    max_nodes:
        Hard cap on explored nodes, same fallback behaviour.
    gap:
        Relative optimality gap ``|bound - incumbent| / max(1, |incumbent|)``
        at which the incumbent is accepted as optimal.
    warm_start:
        Optional name-keyed assignment used as the starting incumbent
        when it is feasible for this model (rejected silently when not).
        Seeding only prunes — it never changes which objective value is
        proven optimal.
    known_bound:
        Optional proven dual bound in the *model's* objective sense
        (e.g. the optimum of a previous, strictly looser instance of the
        same family).  Used to close the gap earlier; must genuinely
        bound this instance or optimality claims become wrong.
    lp_cache:
        Optional mutable mapping reused across solves of the *same*
        compiled instance: node relaxations are cached by their bound
        signature (see :func:`_relax`).
    """
    with obs.span("solver.branch_and_bound", model=model.name) as sp:
        form = model.compile(dense=dense)
        sp.set(variables=int(form.c.size), rows=int(len(form.b_ub) + len(form.b_eq)))
        deadline = None if time_limit is None else time.monotonic() + time_limit
        search = _root(
            model, form, warm_start=warm_start, known_bound=known_bound, lp_cache=lp_cache
        )
        stopped = "exhausted"
        if search is not None:
            stopped = _explore(
                search, gap=gap, node_budget=max_nodes, deadline=deadline, lp_cache=lp_cache
            )
        solution = _solution(model, search, _BACKEND, stopped)
    sp.set(nodes=solution.nodes_explored)
    obs.counter("solver.solves").inc()
    obs.counter("solver.nodes").inc(solution.nodes_explored)
    obs.histogram("solver.solve_seconds").observe(sp.duration)
    return solution
