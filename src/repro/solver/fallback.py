"""The solver fallback chain: try backends in order, remember why.

A campaign that dies because one HiGHS call tripped over a numerical
pathology is a campaign that never reports anything.  The chain tries
each backend in order and answers with the **first viable** one:

* a backend that returns a solution (optimal, feasible, *or* a proven
  INFEASIBLE verdict) answers the chain — infeasibility is a property
  of the model, not a backend failure, so it must stop the chain rather
  than fall through to a solver that would "find" something;
* a backend that raises is recorded (:class:`BackendAttempt`) and the
  next backend gets the same compiled problem;
* :class:`~repro.errors.UnboundedError` propagates immediately — an
  unbounded model is unbounded under every exact backend.

:func:`solve_with_fallback` returns a :class:`FallbackOutcome` carrying
the answering solution plus the full attempt history, so callers (and
the ``solver.fallback.*`` obs counters) can see which backend answered
and why its predecessors failed.  ``solve(model, "fallback")`` routes
through the default chain for callers that only speak backend names —
including every ``--backend`` CLI flag.

Fault-injection sites: each dispatch first pokes
``solver.<backend>`` through :func:`repro.runtime.faults.poke`, which
is how ``tests/faults`` scripts backend crashes and infeasibility
without monkey-patching solver internals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import SolverError, UnboundedError
from repro.runtime import faults
from repro.solver.model import MilpModel, Solution, SolutionStatus

__all__ = [
    "DEFAULT_CHAIN",
    "BackendAttempt",
    "FallbackOutcome",
    "solve_with_fallback",
]

#: Backends the chain tries, in order: the fast production backend
#: first, the dependency-light exact solver as the understudy.
DEFAULT_CHAIN: tuple[str, ...] = ("scipy", "branch-and-bound")


@dataclass(frozen=True, slots=True)
class BackendAttempt:
    """One backend's turn in the chain."""

    backend: str
    answered: bool
    error_type: str = ""
    error: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "backend": self.backend,
            "answered": self.answered,
            "error_type": self.error_type,
            "error": self.error,
        }


@dataclass(frozen=True, slots=True)
class FallbackOutcome:
    """The chain's answer plus the full attempt history."""

    solution: Solution
    attempts: tuple[BackendAttempt, ...]

    @property
    def backend(self) -> str:
        """The backend that answered."""
        return self.attempts[-1].backend

    @property
    def rescued(self) -> bool:
        """Whether any predecessor failed before a backend answered."""
        return len(self.attempts) > 1

    @property
    def failures(self) -> tuple[BackendAttempt, ...]:
        """The attempts that failed, in chain order."""
        return tuple(a for a in self.attempts if not a.answered)


def solve_with_fallback(
    model: MilpModel,
    *,
    time_limit: float | None = None,
    max_nodes: int | None = None,
    gap: float | None = None,
    presolve: bool = False,
    bb_workers: int | None = None,
) -> FallbackOutcome:
    """Solve ``model`` with the first backend in :data:`DEFAULT_CHAIN` that answers.

    ``max_nodes`` and ``gap`` forward to every backend in the chain that
    understands them, so a presolved-but-still-hard instance degrades by
    gap (status ``FEASIBLE``) instead of erroring out of the chain.
    ``bb_workers`` forwards likewise, so the branch-and-bound understudy
    fans its subtree exploration out — answers stay bit-identical to
    the serial understudy's on unique-optimum instances either way.
    With ``presolve=True`` the reduction pipeline runs **once**, before
    the chain — every backend then sees the same reduced instance, and
    the answering solution is lifted back to the original space.

    Raises
    ------
    repro.errors.SolverError
        When every backend fails; the message lists each backend's
        error so the chain's history survives into logs.
    repro.errors.UnboundedError
        Immediately — no backend disagrees about unboundedness.
    """
    from repro.solver import solve  # local import: repro.solver re-exports this module
    from repro.solver.presolve import presolve as run_presolve

    pre = None
    target = model
    if presolve:
        pre = run_presolve(model)
        verdict = pre.verdict()
        if verdict is not None:
            return FallbackOutcome(solution=verdict, attempts=(BackendAttempt("presolve", True),))
        assert pre.reduced is not None
        target = pre.reduced

    attempts: list[BackendAttempt] = []
    with obs.span("solver.fallback", backends=",".join(DEFAULT_CHAIN)) as sp:
        for backend in DEFAULT_CHAIN:
            obs.counter("solver.fallback.attempts").inc()
            try:
                injected = faults.poke(f"solver.{backend}")
                if injected == "infeasible":
                    solution = Solution(
                        SolutionStatus.INFEASIBLE, float("nan"), {}, backend
                    )
                else:
                    solution = solve(
                        target,
                        backend,
                        time_limit=time_limit,
                        max_nodes=max_nodes,
                        gap=gap,
                        bb_workers=bb_workers,
                    )
            except UnboundedError:
                raise
            except Exception as exc:
                attempts.append(
                    BackendAttempt(
                        backend=backend,
                        answered=False,
                        error_type=type(exc).__name__,
                        error=str(exc),
                    )
                )
                obs.counter("solver.fallback.failures").inc()
                continue
            attempts.append(BackendAttempt(backend=backend, answered=True))
            if len(attempts) > 1:
                obs.counter("solver.fallback.rescues").inc()
            sp.set(answered=backend, failed=len(attempts) - 1)
            if pre is not None:
                solution = pre.lift_solution(solution)
            return FallbackOutcome(solution=solution, attempts=tuple(attempts))
        sp.set(answered="", failed=len(attempts))
    obs.counter("solver.fallback.exhausted").inc()
    history = "; ".join(f"{a.backend}: {a.error_type}: {a.error}" for a in attempts)
    raise SolverError(
        f"every backend in the fallback chain failed for model {model.name!r} ({history})"
    )
