"""Deterministic parallel branch & bound via frontier decomposition.

Parallel tree search is where silent nondeterminism creeps into exact
solvers: with a shared incumbent, *when* a worker learns a bound
changes *which* nodes it prunes, so two runs of the same instance can
report different (equally optimal) deployments, different node counts,
or — with tolerance interplay — different objectives.  This solver
buys parallelism without giving up the determinism contract:

1. **Split (serial).**  Run the root step and the best-first loop of
   :mod:`repro.solver.branch_and_bound` — the same code the serial
   solver runs — until the heap holds at least :data:`DEFAULT_SUBTREES`
   open nodes (a constant — never a function of the worker count) or
   the instance is solved outright.
2. **Explore (parallel).**  Each frontier node becomes one task: that
   same loop run to completion over the node's ``(lower, upper)`` box,
   seeded with the phase-1 incumbent and nothing else.  Workers never
   exchange incumbents mid-flight — each subtree's result is a pure
   function of its task, so scheduling cannot influence it.  Tasks are
   dispatched in a **seeded order** (deterministic shuffle of the
   frontier) and fan out over
   :func:`~repro.runtime.parallel.parallel_map`, inheriting its retry,
   respawn, and serial-degrade machinery.  Every task carries the
   compiled :class:`~repro.solver.model.StandardForm` itself, pickled
   with the task, with or without a
   :class:`~repro.runtime.pool.PersistentPool`.
3. **Merge (commutative).**  The final incumbent is the minimum under
   the total order ``(objective, tiebreak index)`` over subtree
   results plus the phase-1 incumbent; node counts are summed.  Both
   reductions are order-independent, so *any* completion order — any
   worker count, any retry schedule, a worker killed and respawned
   mid-subtree — produces bit-identical results.

The contract, precisely: for a fixed instance and fixed ``gap``/
``max_nodes`` (and no ``time_limit``), objectives, deployments, *and
node accounting* are bit-identical at every worker count.  Objectives
and deployments also coincide with the serial solver's on instances
with a unique optimum (ties may break differently — the decomposed
search visits optima in a different order, and both solvers keep the
first they prove).  Node counts are **not** comparable to the serial
solver's: exhausting a frontier subtree explores nodes the serial
global best-first order would have pruned.  The differential stress
suite in ``tests/solver`` pins all of this on 50 seeded instances.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.runtime import faults
from repro.runtime.parallel import parallel_map, spawn_seeds
from repro.runtime.pool import PersistentPool, resolve_pool
from repro.solver.branch_and_bound import (
    DEFAULT_GAP,
    _explore,
    _root,
    _Search,
    _solution,
)
from repro.solver.lp import LpRelaxation, LpResult
from repro.solver.model import MilpModel, Solution, StandardForm

__all__ = ["DEFAULT_SUBTREES", "solve_parallel_branch_and_bound"]

#: How many frontier subtrees phase 1 splits into.  A constant, and
#: deliberately *not* derived from the worker count: the decomposition
#: (and with it every result) must be invariant to how many workers
#: later explore it.
DEFAULT_SUBTREES = 8

#: Backend name stamped on solutions.
_BACKEND = "parallel-bb"

#: Seeds the subtree dispatch shuffle.  Results do not depend on it
#: (the merge is commutative); shuffling keeps that order-independence
#: exercised on every run instead of hiding behind heap layout.
_DISPATCH_SEED = 0


@dataclass(frozen=True)
class _SubtreeTask:
    """One frontier subtree, self-contained for a worker process.

    ``form`` is the compiled :class:`StandardForm`, pickled with the
    task.  ``subtree`` is the deterministic tiebreak index: the node's
    rank in the ``(bound, heap counter)``-sorted frontier, independent
    of the seeded dispatch order.
    """

    subtree: int
    form: StandardForm
    bound: float
    lower: np.ndarray
    upper: np.ndarray
    incumbent_obj: float
    incumbent_x: np.ndarray | None
    bound_floor: float
    gap: float
    node_budget: int
    time_remaining: float | None
    plan: faults.FaultPlan | None


@dataclass(frozen=True)
class _SubtreeResult:
    """What one subtree exploration proved."""

    subtree: int
    objective: float  # minimization convention; +inf when no incumbent
    x: np.ndarray | None
    nodes: int
    exhausted: bool  # False when a node/time limit truncated the search


def _run_subtree(task: _SubtreeTask) -> _SubtreeResult:
    """Explore one frontier subtree to completion (worker entry point).

    Pure: the result depends only on the task, never on which process
    runs it or when — the keystone of the determinism contract.  The
    fault plan (when the ambient harness is active) rides inside the
    task, so injected worker deaths fire by attempt number exactly as
    in :mod:`repro.runtime.faults`.
    """
    if task.plan is not None:
        task.plan.fire(f"solver.parallel_bb.subtree[{task.subtree}]")
    form = task.form
    relaxation = LpRelaxation(form.c, form.A_ub, form.b_ub, form.A_eq, form.b_eq)
    search = _Search(form, relaxation, task.incumbent_obj, task.incumbent_x, task.bound_floor)
    # Seed the heap with the node exactly as it sat in the phase-1
    # frontier — same bound, so the first gap check matches what the
    # serial loop would have computed on popping it.
    search.push(task.bound, task.lower.copy(), task.upper.copy())
    deadline = None if task.time_remaining is None else time.monotonic() + task.time_remaining
    with obs.span("solver.parallel_bb.subtree", subtree=task.subtree) as sp:
        stopped = _explore(
            search, gap=task.gap, node_budget=task.node_budget, deadline=deadline, lp_cache=None
        )
        sp.set(
            nodes=search.nodes,
            stopped=stopped,
            lp_pairs=search.lp_pairs,
            lp_unused=search.lp_unused,
        )
    return _SubtreeResult(
        task.subtree,
        search.incumbent_obj,
        search.incumbent_x,
        search.nodes,
        stopped in ("exhausted", "gap"),
    )


def solve_parallel_branch_and_bound(
    model: MilpModel,
    *,
    workers: int | None = None,
    pool: PersistentPool | None = None,
    time_limit: float | None = None,
    max_nodes: int = 1_000_000,
    gap: float = DEFAULT_GAP,
    warm_start: Mapping[str, float] | None = None,
    known_bound: float | None = None,
    lp_cache: MutableMapping[tuple[bytes, bytes], LpResult] | None = None,
) -> Solution:
    """Solve ``model`` exactly by frontier-decomposed branch and bound.

    Accepts the serial solver's controls plus:

    workers:
        Fan-out width for subtree exploration (resolved like
        :func:`~repro.runtime.parallel.resolve_workers`).  A pure
        throughput knob: results are bit-identical at any value.
    pool:
        Optional :class:`~repro.runtime.pool.PersistentPool` to run
        the subtree tasks on (else the ambient pool, else one scoped
        to the call).
    warm_start, known_bound, lp_cache:
        Exactly as in the serial solver; the cache serves phase 1 only
        (worker processes cannot share a parent-side dict).

    ``max_nodes`` bounds phase 1 and each subtree individually (a
    shared countdown would make accounting depend on completion order);
    a truncated subtree degrades the status to ``FEASIBLE`` just as a
    truncated serial search does.
    """
    with obs.span(
        "solver.parallel_bb", model=model.name, subtrees=DEFAULT_SUBTREES, workers=workers or 0
    ) as sp:
        solution = _solve(
            model,
            workers,
            pool,
            time_limit,
            max_nodes,
            gap,
            warm_start,
            known_bound,
            lp_cache,
        )
        sp.set(nodes=solution.nodes_explored)
    obs.counter("solver.solves").inc()
    obs.counter("solver.nodes").inc(solution.nodes_explored)
    obs.histogram("solver.solve_seconds").observe(sp.duration)
    return solution


def _solve(
    model: MilpModel,
    workers: int | None,
    pool: PersistentPool | None,
    time_limit: float | None,
    max_nodes: int,
    gap: float,
    warm_start: Mapping[str, float] | None,
    known_bound: float | None,
    lp_cache: MutableMapping[tuple[bytes, bytes], LpResult] | None,
) -> Solution:
    form = model.compile()
    deadline = None if time_limit is None else time.monotonic() + time_limit
    search = _root(model, form, warm_start=warm_start, known_bound=known_bound, lp_cache=lp_cache)
    if search is None:
        return _solution(model, None, _BACKEND, "exhausted")

    # Phase 1: serial split to a worker-count-independent frontier.
    stopped = _explore(
        search,
        gap=gap,
        node_budget=max_nodes,
        deadline=deadline,
        lp_cache=lp_cache,
        frontier_target=DEFAULT_SUBTREES,
    )
    obs.counter("solver.parallel.splits").inc(search.nodes)
    if stopped != "frontier":
        return _solution(model, search, _BACKEND, stopped)

    # Phase 2: one task per frontier node.  The tiebreak index is the
    # node's rank in (bound, heap counter) order — deterministic and
    # independent of the seeded dispatch shuffle below.
    frontier = sorted(search.heap, key=lambda node: (node[0], node[1]))
    pool = resolve_pool(pool)
    plan = faults.active_plan()
    tasks = [
        _SubtreeTask(
            subtree=rank,
            form=form,
            bound=bound,
            lower=lower,
            upper=upper,
            incumbent_obj=search.incumbent_obj,
            incumbent_x=search.incumbent_x,
            bound_floor=search.bound_floor,
            gap=gap,
            node_budget=max_nodes,
            time_remaining=(
                None if deadline is None else max(0.0, deadline - time.monotonic())
            ),
            plan=plan,
        )
        for rank, (bound, _, lower, upper, _) in enumerate(frontier)
    ]
    order = np.random.default_rng(spawn_seeds(_DISPATCH_SEED, 1)[0]).permutation(len(tasks))
    dispatched = [tasks[int(i)] for i in order]
    obs.counter("solver.parallel.subtrees").inc(len(tasks))
    results: list[_SubtreeResult] = parallel_map(
        _run_subtree, dispatched, workers=workers, pool=pool
    )

    # Phase 3: commutative merge keyed on (objective, tiebreak index);
    # the phase-1 incumbent enters at index -1 so exact ties prefer it.
    best = (search.incumbent_obj, -1, search.incumbent_x)
    exhausted = True
    for result in results:
        search.nodes += result.nodes
        exhausted = exhausted and result.exhausted
        if result.x is not None and (result.objective, result.subtree) < (best[0], best[1]):
            best = (result.objective, result.subtree, result.x)
    search.incumbent_obj, _, search.incumbent_x = best
    return _solution(model, search, _BACKEND, "exhausted" if exhausted else "limit")
