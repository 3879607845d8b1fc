"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch a single base class at API
boundaries while still being able to discriminate failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ModelError(ReproError):
    """A system model is structurally invalid or refers to unknown entities."""


class DuplicateIdError(ModelError):
    """An entity was registered twice under the same identifier."""

    def __init__(self, kind: str, identifier: str):
        super().__init__(f"duplicate {kind} id: {identifier!r}")
        self.kind = kind
        self.identifier = identifier


class UnknownIdError(ModelError):
    """A reference points at an identifier that does not exist in the model."""

    def __init__(self, kind: str, identifier: str, context: str = ""):
        suffix = f" ({context})" if context else ""
        super().__init__(f"unknown {kind} id: {identifier!r}{suffix}")
        self.kind = kind
        self.identifier = identifier
        self.context = context


class ValidationError(ModelError):
    """A model failed semantic validation; ``problems`` lists every issue."""

    def __init__(self, problems: list[str]):
        joined = "; ".join(problems)
        super().__init__(f"model validation failed with {len(problems)} problem(s): {joined}")
        self.problems = list(problems)


class SerializationError(ReproError):
    """A model document could not be parsed or re-serialized."""


class MetricError(ReproError):
    """A metric was evaluated with inconsistent or out-of-range inputs."""


class SolverError(ReproError):
    """The MILP substrate failed: malformed model or backend failure."""


class InfeasibleError(SolverError):
    """The optimization problem admits no feasible solution."""


class LimitReachedError(SolverError):
    """A time or node limit stopped the solve before it found a feasible point.

    Not a verdict on the model: a longer solve may well find one.
    ``nodes_explored`` is what the backend searched before it stopped.
    """

    def __init__(self, message: str, nodes_explored: int = 0):
        super().__init__(message)
        self.nodes_explored = nodes_explored


class UnboundedError(SolverError):
    """The optimization problem is unbounded in the objective direction."""


class FallbackExhaustedError(SolverError):
    """Every backend of the solver fallback chain failed.

    ``failures`` holds one ``"backend: ErrorType: message"`` line per
    backend, in chain order.
    """

    def __init__(self, message: str, failures: tuple[str, ...] = ()):
        super().__init__(message)
        self.failures = tuple(failures)


class OptimizationError(ReproError):
    """A deployment-optimization request was malformed or failed."""


class SimulationError(ReproError):
    """A monitoring simulation was configured inconsistently."""
