"""Shared vocabulary of the static-analysis pass: findings, rules, context.

Every rule module imports from here and nowhere else inside devtools,
so the rule registry (:mod:`repro.devtools.rules`) and the driver
(:mod:`repro.devtools.lint`) can both import the rules without cycles.

A rule is a class with a ``rule_id``, a one-line ``description``, and a
``check(ctx)`` generator yielding :class:`Finding` records.  Rules see
one file at a time through a :class:`LintContext` — parsed AST, source
lines, module name, and the ``# repro: noqa[RULE-ID]`` suppressions
already extracted from the token stream (so a ``noqa`` inside a string
literal does not suppress anything).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "dotted",
    "parse_suppressions",
    "strongly_connected_components",
]

#: Sentinel stored in the suppression map for a bare ``# repro: noqa``
#: (no bracketed rule list): every rule is suppressed on that line.
_ALL_RULES = "*"

_NOQA = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s\-]+)\])?(?P<reason>.*)?"
)


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"


def _noqa_ids(comment: str) -> set[str]:
    """Rule ids a single comment suppresses (empty set if not a noqa)."""
    match = _NOQA.search(comment)
    if match is None:
        return set()
    rules = match.group("rules")
    if rules is None:
        return {_ALL_RULES}
    return {part.strip().upper() for part in rules.split(",") if part.strip()}


def parse_suppressions(source: str, tree: Any | None = None) -> dict[int, set[str]]:
    """Map line number -> rule ids suppressed by ``# repro: noqa`` comments.

    Recognized forms, always inside a real comment token::

        x = risky()            # repro: noqa[RNG-SEED] seeded upstream
        y = risky2()           # repro: noqa[RNG-SEED,CLOCK-INJECT]
        z = anything()         # repro: noqa  (suppresses every rule)

    The trailing free text is the human-readable reason; it is required
    by convention (review style), not by the parser.

    A noqa applies to its whole *logical* line, not just the physical
    line carrying the comment: a parenthesized call continued over five
    lines is suppressed wherever a rule anchors inside it.  Logical
    lines are recovered from the token stream (NEWLINE ends one, NL is
    a continuation), so a noqa inside a string literal still suppresses
    nothing.  When the parsed ``tree`` is supplied, a noqa anywhere in a
    decorated ``def``/``class`` header — decorator lines included —
    also covers the ``def`` line and each decorator line, because rules
    anchor findings on either.
    """
    suppressions: dict[int, set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions
    pending: set[str] = set()
    span: set[int] = set()
    for token in tokens:
        if token.type == tokenize.COMMENT:
            ids = _noqa_ids(token.string)
            if ids:
                suppressions.setdefault(token.start[0], set()).update(ids)
                pending.update(ids)
            continue
        if token.type == tokenize.NEWLINE:
            # end of a logical line: the noqa covers every physical
            # line the statement touched.
            for line in span:
                if pending:
                    suppressions.setdefault(line, set()).update(pending)
            pending.clear()
            span.clear()
            continue
        if token.type == tokenize.NL:
            if not span:
                # standalone comment line: applies to itself only.
                pending.clear()
            continue
        if token.type in (tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        span.update(range(token.start[0], token.end[0] + 1))
    if tree is not None:
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or not node.decorator_list:
                continue
            start = min(dec.lineno for dec in node.decorator_list)
            header_end = node.body[0].lineno - 1 if node.body else node.lineno
            header_end = max(header_end, node.lineno)
            ids = set()
            for line in range(start, header_end + 1):
                ids |= suppressions.get(line, set())
            if ids:
                anchors = {node.lineno} | {dec.lineno for dec in node.decorator_list}
                for line in anchors:
                    suppressions.setdefault(line, set()).update(ids)
    return suppressions


@dataclass(slots=True)
class LintContext:
    """Everything a rule may look at while checking one file."""

    path: str
    module: str
    source: str
    tree: Any  # ast.Module
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        ids = self.suppressions.get(line)
        if not ids:
            return False
        return _ALL_RULES in ids or rule_id.upper() in ids


class Rule:
    """Base class: subclasses set ``rule_id``/``description`` and ``check``.

    ``severity`` is informational ("error" or "warning"); the lint
    driver exits nonzero on *any* finding either way, so a warning is a
    finding the team has decided to keep visible rather than fix.
    """

    rule_id: ClassVar[str] = ""
    description: ClassVar[str] = ""
    severity: ClassVar[str] = "error"

    def check(self, ctx: LintContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: Any, message: str) -> Finding:
        """A :class:`Finding` for ``node`` (any object with lineno/col_offset)."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(
            rule=self.rule_id,
            path=ctx.path,
            line=line,
            col=col,
            message=message,
            severity=self.severity,
        )


def run_rules(
    rules: Iterable[Rule], ctx: LintContext
) -> list[Finding]:
    """All unsuppressed findings from ``rules`` over one file, sorted."""
    findings: list[Finding] = []
    for rule in rules:
        for found in rule.check(ctx):
            if not ctx.is_suppressed(found.rule, found.line):
                findings.append(found)
    findings.sort(key=Finding.sort_key)
    return findings


def dotted(node: Any) -> str:
    """The dotted name of an expression, or ``""`` if it is not one.

    ``ast.Attribute``/``ast.Name`` chains only — ``np.random.seed``
    comes back verbatim; anything with a call or subscript in the chain
    yields ``""`` (rules treat that as "not a name I recognize").
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, derived from ``__init__.py`` parents.

    Walks upward while the containing directory is a package; a file
    outside any package is just its own stem.  This is how the linter
    knows a file is ``repro.core.serialization`` without importing it.
    """
    path = path.resolve()
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if parts[0] == "__init__":
        parts = parts[1:]
    return ".".join(reversed(parts))


def strongly_connected_components(
    adjacency: Mapping[str, Iterable[str]],
) -> list[tuple[str, ...]]:
    """Tarjan's SCCs of a directed graph, in reverse topological order.

    Every component comes back as a sorted tuple, and a component is
    emitted only after every component it reaches (callee-first).  Roots
    and neighbours are visited in sorted order, so the result is a pure
    function of the graph.  Iterative, so deep graphs cannot exhaust the
    recursion limit.  Nodes that appear only as targets are leaves.
    """
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[tuple[str, ...]] = []

    def visit(node: str) -> Iterator[str]:
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return iter(sorted(adjacency.get(node, ())))

    for root in sorted(adjacency):
        if root in index:
            continue
        work = [(root, visit(root))]
        while work:
            node, neighbours = work[-1]
            for neighbour in neighbours:
                if neighbour not in index:
                    work.append((neighbour, visit(neighbour)))
                    break
                if neighbour in on_stack:
                    lowlink[node] = min(lowlink[node], index[neighbour])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(tuple(sorted(component)))
    return components
