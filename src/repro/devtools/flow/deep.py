"""The ``repro lint --deep`` driver: program in, :class:`DeepReport` out.

Pipeline per package root: :func:`~repro.devtools.flow.symbols.
build_program` (parse + call graph) → :func:`~repro.devtools.flow.
taint.analyze_taint` (fixpoint summaries, then one reporting pass) →
:func:`~repro.devtools.flow.races.fork_capture_findings` (worker
reachability) → the UNRESOLVED-call budget gate.  ``# repro:
noqa[RULE-ID]`` comments suppress deep findings exactly as they do
shallow ones, and whatever survives is matched against the committed
baseline (:mod:`repro.devtools.flow.baseline`): accepted findings are
reported but don't fail; new ones do.

Everything rendered here is deterministic — findings sorted by
``Finding.sort_key``, stats assembled in fixed key order, JSON through
the strict ``jsonsafe`` leaf — so two runs over the same tree produce
byte-identical reports (a property the test suite pins, because a
determinism linter that is itself nondeterministic would be a parody).
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.devtools.base import Finding, parse_suppressions
from repro.devtools.flow import baseline as baseline_mod
from repro.devtools.flow import contract as fc
from repro.devtools.flow.races import FORK_RULE_ID, fork_capture_findings
from repro.devtools.flow.symbols import Program, build_program, condensation_order
from repro.devtools.flow.taint import ORDER_RULE_ID, TAINT_RULE_ID, analyze_taint
from repro.errors import ReproError

__all__ = [
    "DEEP_RULE_IDS",
    "DeepReport",
    "UNRESOLVED_RULE_ID",
    "analyze_deep",
    "default_baseline_path",
    "render_deep_json",
    "render_deep_text",
]

UNRESOLVED_RULE_ID = "UNRESOLVED-CALL"

DEEP_RULE_IDS = (
    TAINT_RULE_ID,
    ORDER_RULE_ID,
    FORK_RULE_ID,
    UNRESOLVED_RULE_ID,
)

#: Canonical baseline file name, committed at the repository root.
BASELINE_FILENAME = "deep-baseline.json"


@dataclass(slots=True)
class DeepReport:
    """One deep-analysis run over a set of package roots."""

    #: Findings that fail the run: not suppressed, not baselined.
    findings: list[Finding]
    #: Findings matched by the committed baseline (reported, non-fatal).
    accepted: list[Finding] = field(default_factory=list)
    #: Baseline entries the analysis no longer produces.
    stale: list[dict] = field(default_factory=list)
    #: Call-graph and fixpoint statistics, fixed key order.
    stats: dict = field(default_factory=dict)
    baseline_path: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.findings)


def _deep_roots(paths: Iterable[str | Path]) -> list[Path]:
    """Package roots to analyze: whole programs, never loose files.

    Directory arguments resolve exactly as in the shallow driver; a
    single-file argument is widened to its enclosing package root,
    because interprocedural analysis of one file out of context would
    silently miss every cross-module flow.
    """
    # Local import: lint imports the deep driver lazily, so this edge
    # must stay function-scoped to keep the module graph acyclic.
    from repro.devtools.lint import _package_roots

    roots = list(_package_roots(paths))
    for raw in paths:
        path = Path(raw)
        if path.is_dir() or path.suffix != ".py":
            continue
        current = path.resolve().parent
        if not (current / "__init__.py").exists():
            raise ReproError(
                f"{path} is not inside a package; --deep needs a package root"
            )
        while (current.parent / "__init__.py").exists():
            current = current.parent
        if current not in roots:
            roots.append(current)
    if not roots:
        raise ReproError("no package roots found under the given paths")
    # Report working-directory-relative paths so two runs (or two
    # machines) over the same tree render byte-identical reports.
    cwd = Path.cwd().resolve()
    normalized: list[Path] = []
    for root in roots:
        resolved = Path(root).resolve()
        try:
            normalized.append(resolved.relative_to(cwd))
        except ValueError:
            normalized.append(resolved)
    return normalized


def default_baseline_path(roots: Sequence[Path]) -> Path | None:
    """Auto-discover the committed baseline near the first root.

    Walks up from the first package root (src/repro → src → repo root)
    and falls back to the working directory, mirroring where a
    repository keeps its committed configuration.
    """
    candidates = []
    if roots:
        current = roots[0].resolve()
        for _ in range(3):
            candidates.append(current / BASELINE_FILENAME)
            current = current.parent
    candidates.append(Path(BASELINE_FILENAME))
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None


def _parse_error_findings(program: Program) -> list[Finding]:
    return [
        Finding(
            rule="PARSE-ERROR",
            path=path,
            line=line,
            col=1,
            message=f"file does not parse: {message}",
        )
        for path, line, message in program.parse_errors
    ]


def _budget_finding(program: Program) -> Finding | None:
    """The UNRESOLVED-CALL gate: honesty about soundness gaps, bounded.

    Every unresolved edge is a flow the taint pass cannot see.  A few
    hundred are inevitable in idiomatic Python (higher-order helpers,
    duck-typed receivers); an unbounded count means the analysis is
    quietly blind.  The finding anchors at the first site past the
    budget — a deterministic location that moves only when the count
    does.
    """
    sites = program.unresolved_sites()
    budget = fc.UNRESOLVED_CALL_BUDGET
    if len(sites) <= budget:
        return None
    ordered = sorted(
        sites,
        key=lambda s: (program.functions[s.caller].path, s.line, s.node.col_offset),
    )
    over = ordered[budget]
    worst = Counter(
        program.functions[s.caller].module for s in sites
    ).most_common(3)
    hotspots = ", ".join(f"{module} ({count})" for module, count in worst)
    return Finding(
        rule=UNRESOLVED_RULE_ID,
        path=program.functions[over.caller].path,
        line=over.line,
        col=over.node.col_offset + 1,
        message=(
            f"{len(sites)} unresolved call edges exceed the budget of "
            f"{budget} (flow.contract.UNRESOLVED_CALL_BUDGET); densest: "
            f"{hotspots} — resolve receivers or raise the budget with review"
        ),
    )


def _suppressed(
    findings: list[Finding], trees: dict[str, ast.Module]
) -> list[Finding]:
    """Drop findings silenced by ``# repro: noqa[RULE-ID]`` comments."""
    cache: dict[str, dict[int, set[str]]] = {}
    kept: list[Finding] = []
    for finding in findings:
        if finding.path not in cache:
            try:
                source = Path(finding.path).read_text()
            except OSError:
                source = ""
            cache[finding.path] = parse_suppressions(
                source, tree=trees.get(finding.path)
            )
        ids = cache[finding.path].get(finding.line, set())
        if "*" in ids or finding.rule in ids:
            continue
        kept.append(finding)
    return kept


def _program_stats(programs: list[Program]) -> dict:
    counts: Counter[str] = Counter()
    modules = functions = classes = parse_errors = 0
    sccs = largest_scc = 0
    for program in programs:
        modules += len(program.modules)
        functions += len(program.functions)
        classes += len(program.classes)
        parse_errors += len(program.parse_errors)
        for sites in program.calls.values():
            for site in sites:
                counts[site.kind] += 1
        components = condensation_order(program)
        sccs += len(components)
        largest_scc = max(
            [largest_scc] + [len(component) for component in components]
        )
    resolved = counts["direct"] + counts["method"] + counts["partial"]
    return {
        "modules": modules,
        "functions": functions,
        "classes": classes,
        "call_sites": sum(counts.values()),
        "resolved": resolved,
        "direct": counts["direct"],
        "method": counts["method"],
        "partial": counts["partial"],
        "external": counts["external"],
        "unresolved": counts["unresolved"],
        "unresolved_budget": fc.UNRESOLVED_CALL_BUDGET,
        "sccs": sccs,
        "largest_scc": largest_scc,
        "parse_errors": parse_errors,
    }


def analyze_deep(
    paths: Sequence[str | Path],
    baseline: str | Path | None = None,
    write_baseline: str | Path | None = None,
) -> DeepReport:
    """Run the whole-program analysis over every package root in ``paths``.

    ``baseline`` overrides auto-discovery (pass the path, or the string
    ``"none"`` to disable matching entirely); ``write_baseline``
    regenerates the baseline file from the current run instead of
    failing on new findings.
    """
    roots = _deep_roots(paths)
    programs: list[Program] = []
    findings: list[Finding] = []
    trees: dict[str, ast.Module] = {}
    for root in roots:
        program = build_program(root)
        programs.append(program)
        for module in program.modules.values():
            trees[module.path] = module.tree
        findings.extend(_parse_error_findings(program))
        taint_findings, _ = analyze_taint(program)
        findings.extend(taint_findings)
        findings.extend(fork_capture_findings(program))
        budget = _budget_finding(program)
        if budget is not None:
            findings.append(budget)
    findings = sorted(set(_suppressed(findings, trees)), key=Finding.sort_key)

    baseline_path: Path | None
    if baseline is None:
        baseline_path = default_baseline_path(roots)
    elif str(baseline).lower() == "none":
        baseline_path = None
    else:
        baseline_path = Path(baseline)
        if not baseline_path.is_file():
            raise ReproError(f"no such baseline: {baseline_path}")

    entries = (
        baseline_mod.load_baseline(baseline_path) if baseline_path is not None else {}
    )
    if write_baseline is not None:
        baseline_mod.write_baseline(findings, write_baseline, previous=entries)
        entries = baseline_mod.load_baseline(write_baseline)
        baseline_path = Path(write_baseline)
    match = baseline_mod.match_baseline(findings, entries)
    return DeepReport(
        findings=match.new,
        accepted=match.accepted,
        stale=match.stale,
        stats=_program_stats(programs),
        baseline_path=str(baseline_path) if baseline_path is not None else None,
    )


def render_deep_text(report: DeepReport) -> str:
    """Human-readable deep report; one finding per line, stats footer."""
    lines = [finding.render() for finding in report.findings]
    if report.findings:
        lines.append(f"{len(report.findings)} new finding(s)")
    else:
        lines.append("deep: no new findings")
    if report.accepted:
        lines.append(f"{len(report.accepted)} baselined finding(s) accepted")
    for entry in report.stale:
        lines.append(
            f"stale baseline entry: {entry['rule']} in {entry['module']}: "
            f"{entry['message']}"
        )
    stats = report.stats
    lines.append(
        "call graph: {functions} function(s), {call_sites} call site(s), "
        "{resolved} resolved, {external} external, {unresolved} unresolved "
        "(budget {unresolved_budget}), {sccs} SCC(s)".format(**stats)
    )
    return "\n".join(lines)


def render_deep_json(report: DeepReport) -> str:
    """The deep report as strict JSON — byte-identical across runs."""
    # Lazy leaf import, same rationale as the shallow driver.
    from repro.export.jsonsafe import dumps as strict_dumps

    payload = {
        "mode": "deep",
        "findings": [finding.to_dict() for finding in report.findings],
        "count": len(report.findings),
        "accepted": [finding.to_dict() for finding in report.accepted],
        "accepted_count": len(report.accepted),
        "stale_baseline": report.stale,
        "baseline": report.baseline_path,
        "stats": report.stats,
        "rules": list(DEEP_RULE_IDS),
    }
    return strict_dumps(payload, indent=2)
