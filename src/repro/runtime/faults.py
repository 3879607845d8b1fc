"""Deterministic fault injection for the fault-tolerance suite.

Recovery code that is never exercised is recovery code that does not
work.  This module scripts faults — task exceptions, hangs, worker
death, solver failures/infeasibility — so ``tests/faults`` can drive
every recovery path in :func:`~repro.runtime.parallel.parallel_map` and
the solver fallback chain (``solve(model, "fallback")``) deterministically:

* A :class:`FaultPlan` maps *site* strings (``"task[3]"``,
  ``"solver.scipy"``) to :class:`FaultSpec` entries.  Plans are plain
  picklable values, so they ride into pool workers inside a
  :class:`FaultyJob` wrapper.
* Attempt counting is **cross-process**: each execution of a site
  claims the next attempt number by atomically creating a marker file
  under the plan's ``state_dir`` (``O_CREAT | O_EXCL``), so "fail the
  first *n* attempts, then succeed" means the same thing whether the
  attempts land in one process or four.  Scheduling cannot change which
  attempt fails — only *when* it runs.
* :func:`seeded_plan` derives which sites fault from a seed alone
  (``random.Random(seed)``), never from timing, so a failing campaign
  replays exactly.

Solver-side injection is ambient: :func:`inject` installs a plan for
the current process and :func:`poke` (called by the solver fallback
chain before dispatching to a backend) consults it.  Task-side
injection is explicit via :class:`FaultyJob`, which composes with any
picklable job function.

Injected faults raise :class:`InjectedFault` — deliberately **not** a
:class:`~repro.errors.ReproError`, so recovery code that special-cases
the library's own error hierarchy cannot accidentally treat an injected
infrastructure fault as a semantic verdict.
"""

from __future__ import annotations

import os
import random
import re
import time
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultyJob",
    "InjectedFault",
    "active_plan",
    "inject",
    "poke",
    "seeded_plan",
    "task_site",
]

#: Supported fault kinds.
#:
#: ``"error"``
#:     Raise :class:`InjectedFault`.
#: ``"hang"``
#:     Sleep ``seconds`` (simulating a stuck task), then proceed
#:     normally — the task still produces its real result, which is
#:     what lets timeout+retry runs stay bit-identical to the oracle.
#: ``"exit"``
#:     Kill the executing process with ``os._exit(1)``.  Inside a pool
#:     worker this breaks the pool (``BrokenProcessPool``); never
#:     triggered in the parent process (see :meth:`FaultPlan.fire`).
#: ``"infeasible"``
#:     Report the site as infeasible instead of raising; the solver
#:     fallback chain turns this into an INFEASIBLE verdict (which must
#:     *stop* the chain, not fall through to a heuristic).
FAULT_KINDS = ("error", "hang", "exit", "infeasible")


class InjectedFault(Exception):
    """An injected infrastructure fault (intentionally not a ReproError)."""


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One site's scripted fault.

    ``times`` is the number of *initial attempts* that fault; attempt
    ``times + 1`` onward proceeds normally.  ``times=-1`` faults every
    attempt.  ``seconds`` only applies to ``kind="hang"``.
    """

    kind: str = "error"
    times: int = 1
    seconds: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.times < -1:
            raise ValueError(f"times must be >= -1, got {self.times!r}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds!r}")

    def applies_to(self, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) faults."""
        return self.times == -1 or attempt <= self.times


def task_site(item: object) -> str:
    """The canonical site string for a parallel task item."""
    return f"task[{item!r}]"


_SLUG_RE = re.compile(r"[^A-Za-z0-9_.-]+")


def _slug(site: str) -> str:
    return _SLUG_RE.sub("_", site)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A picklable script of faults, with cross-process attempt state.

    ``state_dir`` must exist and be shared by every process running
    under the plan (workers inherit it through pickling).  A fresh
    directory per test gives a fresh attempt history.
    """

    specs: Mapping[str, FaultSpec]
    state_dir: str

    @classmethod
    def of(cls, state_dir: str | Path, specs: Mapping[str, FaultSpec]) -> "FaultPlan":
        state_dir = Path(state_dir)
        if not state_dir.is_dir():
            raise ValueError(f"fault-plan state_dir must be an existing directory: {state_dir}")
        # Record the constructing (parent) process so "exit" faults can
        # refuse to kill it — only pool workers may die.
        marker = state_dir / "_parent.pid"
        if not marker.exists():
            marker.write_text(str(os.getpid()), encoding="ascii")
        return cls(specs=dict(specs), state_dir=str(state_dir))

    def next_attempt(self, site: str) -> int:
        """Claim and return this site's next attempt number (1-based).

        Atomic across processes: attempt ``k`` is owned by whichever
        process first creates the ``<site>.<k>`` marker file.
        """
        slug = _slug(site)
        attempt = 1
        while True:
            marker = os.path.join(self.state_dir, f"{slug}.{attempt}")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                attempt += 1
                continue
            os.close(fd)
            return attempt

    def attempts_seen(self, site: str) -> int:
        """How many attempts this site has consumed so far."""
        slug = _slug(site)
        pattern = re.compile(re.escape(slug) + r"\.(\d+)$")
        return sum(1 for name in os.listdir(self.state_dir) if pattern.match(name))

    def fire(self, site: str) -> str | None:
        """Run the site's scripted fault for its next attempt, if any.

        Returns ``"infeasible"`` for an infeasibility fault, ``None``
        when the attempt proceeds normally (including after a ``hang``
        fault finished sleeping); raises :class:`InjectedFault` for
        ``"error"`` faults and kills the process for ``"exit"`` faults.
        An ``"exit"`` fault fires only in a process other than the one
        that built the plan (pool workers); in the parent it raises
        :class:`InjectedFault` instead — killing the parent would take
        the test runner down with it.
        """
        spec = self.specs.get(site)
        if spec is None:
            return None
        attempt = self.next_attempt(site)
        if not spec.applies_to(attempt):
            return None
        if spec.kind == "hang":
            time.sleep(spec.seconds)
            return None
        if spec.kind == "infeasible":
            return "infeasible"
        if spec.kind == "exit":
            if os.getpid() == self._parent_pid():
                raise InjectedFault(
                    f"{site}: exit fault refused in the parent process "
                    f"(attempt {attempt}): {spec.message}"
                )
            os._exit(1)
        raise InjectedFault(f"{site} (attempt {attempt}): {spec.message}")

    def _parent_pid(self) -> int:
        """The PID recorded at plan construction (guard for "exit")."""
        marker = os.path.join(self.state_dir, "_parent.pid")
        try:
            with open(marker, encoding="ascii") as fh:
                return int(fh.read().strip())
        except (FileNotFoundError, ValueError):
            return os.getpid()  # no record: refuse to exit anywhere


def seeded_plan(
    state_dir: str | Path,
    seed: int,
    sites: Sequence[str],
    *,
    fault_rate: float = 0.5,
    spec: FaultSpec | None = None,
) -> FaultPlan:
    """A plan whose faulted sites are a pure function of ``seed``.

    Each site independently faults with probability ``fault_rate``
    under ``random.Random(seed)``, consumed in ``sites`` order — the
    same seed and site list always produce the same plan, so a failing
    run replays exactly.
    """
    if not 0.0 <= fault_rate <= 1.0:
        raise ValueError(f"fault_rate must lie in [0, 1], got {fault_rate!r}")
    spec = spec if spec is not None else FaultSpec()
    rng = random.Random(seed)
    chosen = {site: spec for site in sites if rng.random() < fault_rate}
    return FaultPlan.of(state_dir, chosen)


@dataclass(frozen=True, slots=True)
class FaultyJob:
    """A picklable job wrapper that fires the plan's task faults.

    Wraps any picklable ``fn(item)``; before each execution it fires
    the fault scripted for ``task_site(item)``.  Because attempt state
    lives in the plan's ``state_dir``, retried attempts see increasing
    attempt numbers no matter which process runs them.
    """

    fn: Callable
    plan: FaultPlan

    def __call__(self, item: object) -> object:
        self.plan.fire(task_site(item))
        return self.fn(item)


#: Ambient plan for in-process injection sites (the solver chain).
_ACTIVE_PLAN: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The ambient fault plan, if one is installed."""
    return _ACTIVE_PLAN


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` as the ambient fault plan for this process."""
    global _ACTIVE_PLAN
    previous = _ACTIVE_PLAN
    _ACTIVE_PLAN = plan
    try:
        yield plan
    finally:
        _ACTIVE_PLAN = previous


def poke(site: str) -> str | None:
    """Fire the ambient plan's fault at ``site`` (no-op without a plan).

    Production code calls this at its injection points; with no plan
    installed it is a dictionary miss away from free.
    """
    if _ACTIVE_PLAN is None:
        return None
    return _ACTIVE_PLAN.fire(site)
