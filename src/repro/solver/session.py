"""Warm-started solve sessions for parameterized MILP families.

A budget sweep, an exact frontier, or a robust per-scenario pass solves
dozens of instances that share one structure and differ in a single
right-hand side or objective.  :class:`SolveSession` exploits that:

* every instance is **presolved** (:mod:`repro.solver.presolve`) so the
  backends only ever see the reduced core;
* instances are grouped into **families** by a structure signature
  (variables + constraint coefficients, right-hand sides and objective
  excluded), and within a family the previous point's solution seeds
  branch-and-bound's incumbent whenever it is still feasible;
* when the new instance is a pure **tightening** of the previous one
  (same objective and rows, right-hand sides and bounds at least as
  tight), the previous proven optimum is a valid dual bound and is
  handed to branch-and-bound as ``known_bound``, closing the gap early;
* LP relaxations are **cached per node signature**, keyed by the
  instance digest, so re-solves of an identical core are nearly free.

Everything here is an acceleration, never a relaxation: feasibility of
a seed is re-validated against the new instance, bounds are only reused
when the tightening check proves they still hold, and presolve is exact
— a session's answer is a proven optimum of the same instance a cold
solve would see (bit-identical when presolve finds nothing to reduce;
a genuinely reduced model may break ties among equally-optimal
deployments differently).  Sessions are not thread-safe and (holding live
model state) do not cross process boundaries; parallel sweeps fall back
to a stateless ``solve(..., presolve=True)`` per worker.  A ``"fallback"``
session runs the backend chain on each reduced instance, and the lift
keeps the chain's ``Solution.attempts``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.solver.branch_and_bound import solve_branch_and_bound
from repro.solver.model import (
    MilpModel,
    Solution,
    SolutionStatus,
    StandardForm,
)
from repro.solver.presolve import PresolveStatus, presolve
from repro.solver.sparse import digest_update, matrices_equal, matrix_nbytes

__all__ = ["SolveSession", "structure_signature"]

#: LP caches kept per family (one per distinct reduced instance).
MAX_CACHED_INSTANCES = 8


def structure_signature(model: MilpModel) -> str:
    """Digest of a model's *structure*: what stays fixed across a family.

    Hashes the objective sense, every variable's name and kind, and
    every constraint's name, sense, and coefficient terms — but not
    right-hand sides and not the objective.  Budget-sweep points,
    frontier cap steps, and per-scenario objective variants therefore
    share a signature, which is exactly the set of instances whose
    solutions can seed each other.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(model.sense.value.encode())
    for v in model.variables:
        h.update(v.name.encode())
        h.update(b"\x00")
        h.update(v.kind.value.encode())
        h.update(b"\x01")
    for constraint in model.constraints:
        h.update(constraint.name.encode())
        h.update(constraint.sense.value.encode())
        for var, coef in sorted(constraint.expression.terms.items(), key=lambda t: t[0].index):
            h.update(var.index.to_bytes(4, "little"))
            h.update(np.float64(coef).tobytes())
        h.update(b"\x02")
    return h.hexdigest()


def _instance_digest(form: StandardForm) -> str:
    """Digest of one concrete instance (structure *and* numbers).

    Delegates hashing to :func:`~repro.solver.sparse.digest_update`:
    the CSR matrices hash their canonical triple, the vectors their
    raw bytes.
    """
    h = hashlib.blake2b(digest_size=16)
    for array in (form.c, form.A_ub, form.b_ub, form.A_eq, form.b_eq, form.lower, form.upper):
        digest_update(h, array)
    h.update(b"1" if form.maximize else b"0")
    return h.hexdigest()


def _only_tightened(previous: StandardForm, current: StandardForm) -> bool:
    """Whether ``current`` restricts ``previous``'s feasible set.

    Requires identical objective and constraint matrices; right-hand
    sides and bounds may only move inward.  When true, the previous
    instance's proven optimum bounds the current one (a smaller
    feasible set cannot do better), so it is safe to reuse as a dual
    bound.
    """
    if previous.maximize != current.maximize:
        return False
    if previous.c.shape != current.c.shape or not np.array_equal(previous.c, current.c):
        return False
    if previous.objective_constant != current.objective_constant:
        return False
    if not matrices_equal(previous.A_ub, current.A_ub):
        return False
    if not matrices_equal(previous.A_eq, current.A_eq):
        return False
    if not np.array_equal(previous.b_eq, current.b_eq):
        return False
    return bool(
        np.all(current.b_ub <= previous.b_ub)
        and np.all(current.lower >= previous.lower)
        and np.all(current.upper <= previous.upper)
    )


@dataclass
class _FamilyState:
    """What the session remembers about one structure family."""

    prev_values: dict[str, float] | None = None  # original-space solution
    prev_objective: float | None = None  # model sense
    prev_optimal: bool = False
    prev_form: StandardForm | None = None  # original compiled form
    presolve_futile: bool = False  # last presolve reduced nothing


class SolveSession:
    """Presolve + warm-start state shared across a family of solves.

    Parameters
    ----------
    backend:
        Backend name for the underlying solves.  Branch-and-bound gets
        the full treatment (incumbent seeding, dual-bound reuse, LP
        caching); other backends still benefit from presolve and family
        bookkeeping.
    presolve:
        Run the exact reduction pipeline on every instance (on by
        default — a session exists to amortize sweeps).
    time_limit, max_nodes, gap:
        Default solve controls forwarded to the backend; ``solve`` may
        override them per call.
    """

    def __init__(
        self,
        backend: str = "scipy",
        *,
        presolve: bool = True,
        time_limit: float | None = None,
        max_nodes: int | None = None,
        gap: float | None = None,
    ):
        self.backend = backend
        self.presolve_enabled = presolve
        self.time_limit = time_limit
        self.max_nodes = max_nodes
        self.gap = gap
        self._families: dict[str, _FamilyState] = {}
        # LP-relaxation caches, one per distinct reduced instance (LRU).
        self._lp_caches: OrderedDict[str, dict] = OrderedDict()

    def _lp_cache_for(self, digest: str) -> dict:
        cache = self._lp_caches.get(digest)
        if cache is None:
            cache = {}
            self._lp_caches[digest] = cache
            while len(self._lp_caches) > MAX_CACHED_INSTANCES:
                self._lp_caches.popitem(last=False)
        else:
            self._lp_caches.move_to_end(digest)
        return cache

    # -- public API --------------------------------------------------------

    @property
    def family_count(self) -> int:
        """How many structure families this session has seen."""
        return len(self._families)

    def estimated_bytes(self) -> int:
        """Rough footprint of the session's warm state, in bytes.

        Exact accounting for the numpy payloads (previous compiled
        forms, the dominant term on large models) plus flat per-entry
        estimates for the Python-object overhead of recorded solutions
        and LP-relaxation cache entries.  Consumed by the service's
        LRU-by-bytes cache (:mod:`repro.service.cache`); the absolute
        scale matters less than growing monotonically with retained
        state, which the test suite pins.
        """
        total = 0
        for family in self._families.values():
            if family.prev_values is not None:
                total += 80 * len(family.prev_values)
            form = family.prev_form
            if form is not None:
                # matrix_nbytes counts a CSR matrix's data/indices/indptr
                # payload, not the dense rows x vars its shape implies.
                total += sum(
                    matrix_nbytes(array)
                    for array in (
                        form.c,
                        form.A_ub,
                        form.b_ub,
                        form.A_eq,
                        form.b_eq,
                        form.lower,
                        form.upper,
                        form.integrality,
                    )
                )
        for cache in self._lp_caches.values():
            total += 512 * max(1, len(cache))
        return total

    def solve(
        self,
        model: MilpModel,
        *,
        time_limit: float | None = None,
        max_nodes: int | None = None,
        gap: float | None = None,
        family_key: str | None = None,
    ) -> Solution:
        """Solve ``model``, reusing whatever its family has already proven.

        ``family_key`` names the model's structure family directly,
        skipping the :func:`structure_signature` hash.  Callers that
        manage families themselves (:class:`~repro.optimize.family.
        ProblemFamily`) pass a stable key; correctness does not hinge on
        it, because seeds are re-validated, dual bounds are only reused
        after the tightening proof, and the LP cache is content-keyed.
        """
        obs.counter("solver.session.solves").inc()
        time_limit = self.time_limit if time_limit is None else time_limit
        max_nodes = self.max_nodes if max_nodes is None else max_nodes
        gap = self.gap if gap is None else gap
        with obs.span("solver.session.solve", model=model.name, backend=self.backend):
            key = family_key if family_key is not None else structure_signature(model)
            family = self._families.setdefault(key, _FamilyState())
            # The compiled form is only consumed by branch-and-bound's
            # tightening check (_reusable_bound); other backends skip
            # the bookkeeping compile entirely and record form=None.
            form = model.compile() if self.backend == "branch-and-bound" else None

            if self.presolve_enabled and family.presolve_futile:
                # The family's last presolve reduced nothing.  Skipping
                # the pipeline is always exact (presolve is purely an
                # acceleration), and rhs-only changes rarely unlock
                # reductions a structurally identical sibling lacked —
                # so the session stops paying for futile presolves.
                obs.counter("solver.session.presolve_skips").inc()
                target, lift = model, None
            elif self.presolve_enabled:
                pre = presolve(model)
                family.presolve_futile = (
                    pre.status is PresolveStatus.REDUCED
                    and pre.stats.columns_after == pre.stats.columns_before
                    and pre.stats.rows_after == pre.stats.rows_before
                )
                verdict = pre.verdict()
                if verdict is not None:
                    self._record(family, form, verdict)  # no-op on INFEASIBLE
                    return verdict
                assert pre.reduced is not None
                target, lift = pre.reduced, pre
            else:
                target, lift = model, None

            from repro.solver import solve  # local: repro.solver imports us

            limits = dict(time_limit=time_limit, max_nodes=max_nodes, gap=gap)
            if self.backend == "branch-and-bound":
                # Only branch-and-bound consumes seeds, dual bounds and LP
                # caches; computing (and counting) them for other backends
                # would make the session stats lie.
                solution = solve_branch_and_bound(
                    target,
                    warm_start=self._project_seed(family, target),
                    known_bound=self._reusable_bound(family, form),
                    lp_cache=self._lp_cache_for(_instance_digest(target.compile())),
                    **limits,
                )
            else:
                solution = solve(target, self.backend, **limits)
            if lift is not None:
                solution = lift.lift_solution(solution)
            self._record(family, form, solution)
            return solution

    # -- internals ---------------------------------------------------------

    def _project_seed(
        self, family: _FamilyState, target: MilpModel
    ) -> dict[str, float] | None:
        """The previous solution restricted to the target's variables.

        Restriction is sound because presolve only ever *fixes*
        variables to forced values: a previous solution feasible in the
        new original instance restricts to a feasible reduced solution
        (branch-and-bound re-validates either way).
        """
        if family.prev_values is None:
            return None
        try:
            seed = {v.name: family.prev_values[v.name] for v in target.variables}
        except KeyError:
            obs.counter("solver.session.incumbent_rejected").inc()
            return None
        obs.counter("solver.session.incumbent_seeds").inc()
        return seed

    def _reusable_bound(self, family: _FamilyState, form: StandardForm) -> float | None:
        """The previous optimum, when it still bounds this instance."""
        if (
            family.prev_optimal
            and family.prev_objective is not None
            and family.prev_form is not None
            and _only_tightened(family.prev_form, form)
        ):
            obs.counter("solver.session.bound_reuses").inc()
            return family.prev_objective
        return None

    def _record(
        self, family: _FamilyState, form: StandardForm | None, solution: Solution
    ) -> None:
        if not solution.values or solution.status not in (
            SolutionStatus.OPTIMAL,
            SolutionStatus.FEASIBLE,
        ):
            return
        family.prev_values = dict(solution.values)
        family.prev_objective = solution.objective
        family.prev_optimal = solution.status is SolutionStatus.OPTIMAL
        family.prev_form = form
