"""The lint driver: files in, :class:`Finding` records out, exit code 1.

Orchestrates the AST rules (:mod:`repro.devtools.rules`) and the
import-graph checks (:mod:`repro.devtools.imports`) over a set of paths,
applies ``# repro: noqa[RULE-ID]`` suppressions, and renders the result
as human text or strict JSON (via ``repro.export.jsonsafe``, naturally —
the linter is not above its own law).

Entry points: ``repro lint`` (the CLI subcommand) and ``python -m
repro.devtools`` both call :func:`main`.  Exit codes: 0 clean, 1 any
finding, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.devtools import imports as import_analysis
from repro.devtools.base import (
    Finding,
    LintContext,
    Rule,
    module_name_for,
    parse_suppressions,
    run_rules,
)
from repro.devtools.rules import ALL_RULES, rule_index
from repro.errors import ReproError

__all__ = [
    "GRAPH_RULE_IDS",
    "PARSE_RULE_ID",
    "all_rule_ids",
    "lint_file",
    "lint_paths",
    "main",
    "render_json",
    "render_text",
    "run",
    "run_deep",
]

PARSE_RULE_ID = "PARSE-ERROR"

#: Whole-package rules the import analyzer owns (not AST rules).
GRAPH_RULE_IDS = (import_analysis.CYCLE_RULE_ID, import_analysis.LAYER_RULE_ID)


def all_rule_ids() -> list[str]:
    """Every selectable rule id, AST rules first, graph rules last."""
    return [rule.rule_id for rule in ALL_RULES] + list(GRAPH_RULE_IDS)


def lint_file(path: str | Path, rules: Sequence[Rule] | None = None) -> list[Finding]:
    """All findings of the AST ``rules`` (default: all) over one file."""
    path = Path(path)
    rules = ALL_RULES if rules is None else rules
    source = path.read_text()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                rule=PARSE_RULE_ID,
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    ctx = LintContext(
        path=str(path),
        module=module_name_for(path),
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source, tree=tree),
    )
    return run_rules(rules, ctx)


def _python_files(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise ReproError(f"not a Python file or directory: {path}")
    seen: set[Path] = set()
    unique = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _package_roots(paths: Iterable[str | Path]) -> list[Path]:
    """Topmost package directories covered by directory arguments.

    The import-graph rules need a whole package to make sense, so they
    run once per package root found under/above each directory path:
    ``src/repro`` is its own root; passing ``src`` finds ``src/repro``;
    single-file arguments contribute nothing.
    """
    roots: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_dir():
            continue
        if (path / "__init__.py").exists():
            current = path.resolve()
            while (current.parent / "__init__.py").exists():
                current = current.parent
            roots.append(current)
        else:
            for child in sorted(path.iterdir()):
                if child.is_dir() and (child / "__init__.py").exists():
                    roots.append(child.resolve())
    unique: list[Path] = []
    for root in roots:
        if root not in unique:
            unique.append(root)
    return unique


def _graph_findings(paths: Iterable[str | Path], wanted: set[str] | None) -> list[Finding]:
    findings: list[Finding] = []
    suppression_cache: dict[str, dict[int, set[str]]] = {}
    for root in _package_roots(paths):
        graph = import_analysis.build_graph(root)
        produced: list[Finding] = []
        if wanted is None or import_analysis.CYCLE_RULE_ID in wanted:
            produced.extend(import_analysis.cycle_findings(graph))
        if wanted is None or import_analysis.LAYER_RULE_ID in wanted:
            produced.extend(import_analysis.layering_findings(graph))
        for finding in produced:
            if finding.path not in suppression_cache:
                try:
                    source = Path(finding.path).read_text()
                except OSError:
                    source = ""
                suppression_cache[finding.path] = parse_suppressions(source)
            ids = suppression_cache[finding.path].get(finding.line, set())
            if "*" in ids or finding.rule in ids:
                continue
            findings.append(finding)
    return findings


def lint_paths(
    paths: Sequence[str | Path], rule_ids: Sequence[str] | None = None
) -> list[Finding]:
    """Run the selected rules (default: everything) over ``paths``.

    ``rule_ids`` filters both AST and graph rules; unknown ids raise
    :class:`~repro.errors.ReproError` so typos fail loudly instead of
    silently linting nothing.
    """
    index = rule_index()
    wanted: set[str] | None = None
    if rule_ids is not None:
        wanted = {rule_id.upper() for rule_id in rule_ids}
        known = set(index) | set(GRAPH_RULE_IDS)
        unknown = wanted - known
        if unknown:
            raise ReproError(
                f"unknown rule id(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})"
            )
    ast_rules: Sequence[Rule] = (
        ALL_RULES
        if wanted is None
        else [rule for rule in ALL_RULES if rule.rule_id in wanted]
    )
    findings: list[Finding] = []
    for path in _python_files(paths):
        findings.extend(lint_file(path, ast_rules))
    findings.extend(_graph_findings(paths, wanted))
    findings.sort(key=Finding.sort_key)
    return findings


def render_text(findings: Sequence[Finding], files_linted: int | None = None) -> str:
    """Human-readable report, one ``path:line:col: RULE message`` per line."""
    lines = [finding.render() for finding in findings]
    suffix = f" across {files_linted} file(s)" if files_linted is not None else ""
    if findings:
        lines.append(f"{len(findings)} finding(s){suffix}")
    else:
        lines.append(f"clean: no findings{suffix}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_linted: int | None = None) -> str:
    """The report as strict JSON (non-finite-safe, ``allow_nan=False``)."""
    # Lazy import: jsonsafe is a leaf, but *eagerly* importing it would
    # execute repro.export's package __init__ and drag the optimize
    # stack into every lint run (see the IMPORT-CYCLE rationale).
    from repro.export.jsonsafe import dumps as strict_dumps

    payload = {
        "findings": [finding.to_dict() for finding in findings],
        "count": len(findings),
        "files_linted": files_linted,
        "rules": all_rule_ids(),
    }
    return strict_dumps(payload, indent=2)


def main(argv: Sequence[str] | None = None, prog: str = "repro lint") -> int:
    """Command-line entry point shared by ``repro lint`` and ``-m``."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Project-specific static analysis: invariant rules, "
        "import cycles, and the package layering contract.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE-ID",
        help="run only this rule (repeatable); default: all rules",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="OUT.json",
        help="additionally write the JSON report here (CI artifact)",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help="run the whole-program dataflow analysis (taint, set-order "
        "leaks, fork capture) instead of the per-file rules",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="BASELINE.json",
        help="deep mode: baseline of accepted findings (default: "
        "auto-discover deep-baseline.json near the package root; "
        "pass 'none' to disable)",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        metavar="BASELINE.json",
        help="deep mode: write the current findings as the new baseline "
        "instead of failing on them",
    )
    args = parser.parse_args(argv)
    if (args.baseline or args.write_baseline) and not args.deep:
        print("error: --baseline/--write-baseline require --deep", file=sys.stderr)
        return 2
    try:
        if args.deep:
            return run_deep(
                args.paths,
                format=args.format,
                output=args.output,
                baseline=args.baseline,
                write_baseline=args.write_baseline,
            )
        return run(args.paths, args.rule, args.format, args.output)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(
    paths: Sequence[str | Path],
    rule_ids: Sequence[str] | None = None,
    format: str = "text",
    output: Path | None = None,
) -> int:
    """Lint ``paths``, print the report, and return the exit code.

    Shared by :func:`main` and the ``repro lint`` subcommand so both
    entry points agree on validation, rendering, and exit codes.
    Raises :class:`~repro.errors.ReproError` on bad invocations
    (missing paths, unknown rule ids) — callers map that to exit 2.
    """
    for path in paths:
        if not Path(path).exists():
            raise ReproError(f"no such path: {path}")
    files = len(_python_files(paths))
    findings = lint_paths(paths, rule_ids)
    if format == "json":
        print(render_json(findings, files))
    else:
        print(render_text(findings, files))
    if output is not None:
        output.write_text(render_json(findings, files) + "\n")
    return 1 if findings else 0


def run_deep(
    paths: Sequence[str | Path],
    format: str = "text",
    output: Path | None = None,
    baseline: str | None = None,
    write_baseline: Path | None = None,
) -> int:
    """Whole-program deep analysis behind ``repro lint --deep``.

    Exit codes match the shallow driver: 0 when every finding is
    baselined (stale baseline entries are reported but non-fatal), 1 on
    any new finding, 2 (via :class:`~repro.errors.ReproError` in the
    caller) on bad invocations.
    """
    # Lazy import: the flow engine is a heavyweight leaf of devtools and
    # shallow lint runs shouldn't pay for building it.
    from repro.devtools.flow.deep import (
        analyze_deep,
        render_deep_json,
        render_deep_text,
    )

    for path in paths:
        if not Path(path).exists():
            raise ReproError(f"no such path: {path}")
    report = analyze_deep(paths, baseline=baseline, write_baseline=write_baseline)
    if format == "json":
        print(render_deep_json(report))
    else:
        print(render_deep_text(report))
    if output is not None:
        output.write_text(render_deep_json(report) + "\n")
    return 1 if report.failed else 0
