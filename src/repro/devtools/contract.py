"""The repository's structural contract, as data.

This module is the single place where the layering of ``repro`` and the
per-rule allowlists live.  The import analyzer
(:mod:`repro.devtools.imports`) and several AST rules read it; the
contract test (``tests/devtools/test_contract.py``) regenerates the
import graph from ``src/`` and diffs it against
:data:`ALLOWED_PACKAGE_DEPS`, so a new cross-layer import fails tests
with a readable diff before it fails CI lint with an opaque error.

Layering (each package may import the ones it points at, plus the
shared leaves ``errors`` and ``repro.export.jsonsafe``)::

    core -> metrics -> solver/optimize -> simulation/analysis -> cli
                 \\        runtime  _/            service    _/
    obs      — importable from anywhere; imports nothing back
    export   — formatting leaves; analysis types only under TYPE_CHECKING
    runtime  — substrate under solver/optimize/simulation/analysis
    service  — async job-queue front over solver/optimize/runtime
    casestudy, devtools — side packages feeding the CLI

``obs``/``runtime``/``export`` are the "leaves with rules": anyone may
depend on them, and what *they* may depend on is deliberately tiny.
"""

from __future__ import annotations

__all__ = [
    "ALLOWED_PACKAGE_DEPS",
    "CLOCK_ALLOWLIST",
    "EXPORT_TYPE_ONLY_PREFIXES",
    "HOT_PATHS",
    "JSON_ALLOWLIST",
    "LEAF_MODULES",
    "PARALLEL_MAP_NAMES",
    "RNG_ALLOWLIST",
    "package_of",
]

#: Modules importable from *any* package without creating a layering
#: edge: dependency-free utility leaves.  ``repro.export.jsonsafe``
#: imports only the stdlib, so depending on it does not drag in the
#: rest of the export package's (heavier) dependency cone — but note
#: that *eagerly* importing it still executes ``repro/export/__init__``;
#: modules below ``export`` in the layering (``core``, ``obs``) must
#: import it lazily, which the cycle detector enforces.
LEAF_MODULES: frozenset[str] = frozenset({"repro.errors", "repro.export.jsonsafe"})

#: package -> packages it may import at runtime (eager or lazy),
#: after edges to LEAF_MODULES are exempted.  Because ``errors`` and
#: ``export.jsonsafe`` are leaves, edges to them never appear here —
#: listing them would be dead weight the contract test flags as stale.
#: ``repro`` is the root package's own ``__init__``; ``__main__`` and
#: ``cli`` are the two root-level entry modules.  This is an *exact*
#: record of the current graph, not an upper bound — the contract test
#: pins equality so both added and dropped edges show up in review.
ALLOWED_PACKAGE_DEPS: dict[str, frozenset[str]] = {
    "repro": frozenset({"core", "metrics"}),
    "__main__": frozenset({"cli"}),
    "cli": frozenset(
        {
            "analysis",
            "casestudy",
            "core",
            "devtools",
            "export",
            "metrics",
            "obs",
            "optimize",
            "runtime",
            "service",
            "simulation",
            "solver",
        }
    ),
    "errors": frozenset(),
    "core": frozenset(),
    "metrics": frozenset({"core"}),
    "obs": frozenset(),
    "runtime": frozenset({"core", "metrics", "obs"}),
    "solver": frozenset({"obs", "runtime"}),
    "optimize": frozenset({"core", "metrics", "obs", "runtime", "solver"}),
    "simulation": frozenset({"core", "obs", "optimize", "runtime"}),
    "analysis": frozenset({"core", "metrics", "obs", "optimize", "runtime", "simulation"}),
    "export": frozenset({"core", "optimize"}),
    "service": frozenset({"core", "metrics", "obs", "optimize", "runtime", "solver"}),
    "casestudy": frozenset({"core"}),
    "devtools": frozenset(),
}

#: Prefixes that modules under ``repro.export`` may reference only
#: under ``if TYPE_CHECKING:`` — the packages that (transitively)
#: import ``repro.export`` back, so a runtime import would close the
#: cycle that used to crash ``import repro.cli`` (fixed in PR 3, pinned
#: by the TYPECHECK-IMPORT rule).
EXPORT_TYPE_ONLY_PREFIXES: tuple[str, ...] = (
    "repro.analysis",
    "repro.simulation",
    "repro.cli",
)

#: module -> calls it may make that read an ambient clock.  ``"*"``
#: allows everything (the clock implementations themselves); otherwise
#: the set lists dotted call names.  The deadline allowlist exists
#: because per-task timeouts and node-limit deadlines are *wall-clock
#: policies*, not measurements — injecting a fake clock there would
#: make a hung worker unkillable in exchange for nothing.
CLOCK_ALLOWLIST: dict[str, frozenset[str]] = {
    "repro.obs.clock": frozenset({"*"}),
    "repro.runtime.parallel": frozenset({"time.monotonic"}),
    "repro.solver.branch_and_bound": frozenset({"time.monotonic"}),
    "repro.solver.parallel_bb": frozenset({"time.monotonic"}),
}

#: Modules allowed to call ``json.dumps``/``json.dump`` directly: the
#: strict-JSON choke point itself, and nothing else.
JSON_ALLOWLIST: frozenset[str] = frozenset({"repro.export.jsonsafe"})

#: Modules exempt from RNG-SEED (none today; the rule only flags
#: *unseeded* constructions, and every current call site seeds).
RNG_ALLOWLIST: frozenset[str] = frozenset()

#: Call names PICKLE-SAFE treats as process-pool entry points: their
#: callable argument crosses a pickle boundary.
PARALLEL_MAP_NAMES: frozenset[str] = frozenset({"parallel_map"})

#: The instrumented-hot-path registry: module -> qualnames that must
#: open a tracer span (OBS-SPAN).  These are the paths whose timings
#: back the performance claims in docs/performance.md; deleting the
#: span silently unplots them, so the linter keeps the set closed.  A
#: registered qualname that no longer exists is itself a finding —
#: renames must update this table.
HOT_PATHS: dict[str, tuple[str, ...]] = {
    "repro.analysis.contribution": ("shapley_values",),
    "repro.runtime.engine": ("EvaluationEngine.__init__", "EvaluationEngine.components"),
    "repro.runtime.cache": ("cached_breakdown",),
    "repro.runtime.parallel": ("parallel_map",),
    "repro.solver.model": ("MilpModel.compile",),
    "repro.solver.scipy_backend": ("solve_scipy_milp",),
    "repro.solver.lp": ("LpRelaxation.solve",),
    "repro.solver.branch_and_bound": ("solve_branch_and_bound",),
    "repro.solver.parallel_bb": ("solve_parallel_branch_and_bound",),
    "repro.solver.presolve": ("presolve",),
    "repro.solver.fallback": ("_solve_chain",),
    "repro.solver.session": ("SolveSession.solve",),
    "repro.optimize.greedy": ("solve_greedy",),
    "repro.optimize.greedy_cover": ("solve_greedy_cover",),
    "repro.optimize.annealing": ("solve_annealing",),
    "repro.optimize.random_search": ("solve_random",),
    "repro.optimize.pareto": ("budget_sweep", "heuristic_sweep", "pareto_frontier"),
    "repro.optimize.frontier": ("exact_frontier",),
    "repro.optimize.problem": ("MaxUtilityProblem.solve", "MinCostProblem.solve"),
    "repro.optimize.robust": ("RobustMaxUtilityProblem.solve",),
    "repro.optimize.rebalance": ("RebalanceProblem.solve",),
    "repro.simulation.campaign": ("run_campaign",),
    "repro.service.service": ("SolveService._run_job",),
}


def package_of(module: str, root: str = "repro") -> str:
    """The layering-contract package a module belongs to.

    ``repro.core.model`` -> ``core``; root-level modules are their own
    packages (``repro.cli`` -> ``cli``, ``repro.errors`` -> ``errors``,
    ``repro.__main__`` -> ``__main__``); the root ``__init__`` is
    ``repro`` itself.
    """
    if module == root:
        return root
    prefix = root + "."
    if module.startswith(prefix):
        return module[len(prefix) :].split(".", 1)[0]
    return module.split(".", 1)[0]
