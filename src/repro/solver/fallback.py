"""The solver fallback chain: try backends in order, remember why.

A campaign that dies because one HiGHS call tripped over a numerical
pathology is a campaign that never reports anything.  The chain tries
each backend in order and answers with the **first viable** one:

* a backend that returns a solution (optimal, feasible, *or* a proven
  INFEASIBLE verdict) answers the chain — infeasibility is a property
  of the model, not a backend failure, so it must stop the chain rather
  than fall through to a solver that would "find" something;
* a backend that raises is recorded (:class:`~repro.solver.model.
  BackendAttempt`) and the next backend gets the same compiled problem;
* :class:`~repro.errors.UnboundedError` propagates immediately — an
  unbounded model is unbounded under every exact backend.

``solve(model, "fallback")`` is the chain's one entry, so every
``--backend fallback`` flag, service job and :class:`~repro.solver.
session.SolveSession` reaches it the same way.  The answering
:class:`~repro.solver.model.Solution` carries the full attempt history
in ``attempts``, so callers (and the ``solver.fallback.*`` obs
counters) can see which backend answered and why its predecessors
failed.

Fault-injection sites: each dispatch first pokes
``solver.<backend>`` through :func:`repro.runtime.faults.poke`, which
is how ``tests/faults`` scripts backend crashes and infeasibility
without monkey-patching solver internals.
"""

from __future__ import annotations

from dataclasses import replace

from repro import obs
from repro.errors import FallbackExhaustedError, UnboundedError
from repro.runtime import faults
from repro.solver.model import BackendAttempt, MilpModel, Solution, SolutionStatus

__all__ = ["DEFAULT_CHAIN"]

#: Backends the chain tries, in order: the fast production backend
#: first, the dependency-light exact solver as the understudy.
DEFAULT_CHAIN: tuple[str, ...] = ("scipy", "branch-and-bound")


def _solve_chain(
    model: MilpModel,
    *,
    time_limit: float | None,
    max_nodes: int | None,
    gap: float | None,
) -> Solution:
    """Solve ``model`` with the first backend in :data:`DEFAULT_CHAIN` that answers.

    ``max_nodes`` and ``gap`` forward to every backend, so a hard instance degrades by gap (status
    ``FEASIBLE``) instead of erroring out of the chain.

    Raises
    ------
    repro.errors.FallbackExhaustedError
        When every backend fails; its ``failures`` (and its message)
        list each backend's error so the chain's history survives into
        logs and into a greedy rescue's result.
    repro.errors.UnboundedError
        Immediately — no backend disagrees about unboundedness.
    """
    from repro.solver import solve  # local import: repro.solver re-exports this module

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
                        model,
                        backend,
                        time_limit=time_limit,
                        max_nodes=max_nodes,
                        gap=gap,
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
            return replace(solution, attempts=tuple(attempts))
        sp.set(answered="", failed=len(attempts))
    obs.counter("solver.fallback.exhausted").inc()
    failures = tuple(f"{a.backend}: {a.error_type}: {a.error}" for a in attempts)
    raise FallbackExhaustedError(
        f"every backend in the fallback chain failed for model {model.name!r} "
        f"({'; '.join(failures)})",
        failures,
    )
