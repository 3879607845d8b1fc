"""Import-graph analysis by parsing, never importing.

Builds the intra-package module graph of a Python package directory
with :mod:`ast`, then checks two structural invariants:

* **IMPORT-CYCLE** — no cycle among *eager* runtime imports.  The
  graph models what the interpreter actually executes: importing
  ``a.b.c`` runs ``a/__init__`` and ``a/b/__init__`` first, so every
  edge to a module implies edges to its enclosing packages (except the
  importer's own ancestors, which are always mid-initialization
  already and therefore never *new* work).  ``if TYPE_CHECKING:``
  imports and imports nested inside functions (lazy, by construction
  deferred past init) are excluded — a lazy import is the sanctioned
  way to break a cycle, as ``repro.obs.export`` does for ``jsonsafe``.

* **LAYER-CONTRACT** — every runtime import (eager *or* lazy; a lazy
  import is still a dependency) must respect the package layering
  declared in :mod:`repro.devtools.contract`, after exempting the
  shared leaf modules.

Everything returns :class:`~repro.devtools.base.Finding` records so the
lint driver treats graph rules exactly like AST rules, including
``# repro: noqa[...]`` suppression on the offending import line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools import contract
from repro.devtools.base import Finding, strongly_connected_components

__all__ = [
    "CYCLE_RULE_ID",
    "LAYER_RULE_ID",
    "ImportEdge",
    "ModuleGraph",
    "build_graph",
    "cycle_findings",
    "find_cycles",
    "graph_findings",
    "layering_findings",
    "package_dependencies",
]

CYCLE_RULE_ID = "IMPORT-CYCLE"
LAYER_RULE_ID = "LAYER-CONTRACT"


@dataclass(frozen=True, slots=True)
class ImportEdge:
    """One import statement, resolved to the module it loads."""

    src: str
    target: str
    line: int
    type_checking: bool
    lazy: bool

    @property
    def runtime(self) -> bool:
        return not self.type_checking


@dataclass(slots=True)
class ModuleGraph:
    """All modules of one package and every intra-package import."""

    root: str
    modules: dict[str, Path] = field(default_factory=dict)
    edges: list[ImportEdge] = field(default_factory=list)

    def edges_from(self, module: str) -> list[ImportEdge]:
        return [edge for edge in self.edges if edge.src == module]


class _ImportVisitor(ast.NodeVisitor):
    """Collects intra-package imports with TYPE_CHECKING/lazy flags."""

    def __init__(self, module: str, is_package: bool, graph: ModuleGraph) -> None:
        self.module = module
        self.is_package = is_package
        self.graph = graph
        self._type_checking = False
        self._depth = 0  # function nesting; >0 means the import is lazy

    # -- scope tracking ------------------------------------------------
    def visit_If(self, node: ast.If) -> None:
        guarded = "TYPE_CHECKING" in ast.dump(node.test)
        if guarded:
            previous = self._type_checking
            self._type_checking = True
            for child in node.body:
                self.visit(child)
            self._type_checking = previous
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    def _visit_function(self, node: ast.AST) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    # -- imports -------------------------------------------------------
    def _add(self, target: str, line: int) -> None:
        root = self.graph.root
        if target != root and not target.startswith(root + "."):
            return
        self.graph.edges.append(
            ImportEdge(
                src=self.module,
                target=target,
                line=line,
                type_checking=self._type_checking,
                lazy=self._depth > 0,
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            parts = self.module.split(".")
            if not self.is_package:
                parts = parts[:-1]
            if node.level > 1:
                parts = parts[: len(parts) - (node.level - 1)]
            base = ".".join(parts + ([node.module] if node.module else []))
        if not base:
            return
        for alias in node.names:
            candidate = f"{base}.{alias.name}"
            if candidate in self.graph.modules:
                self._add(candidate, node.lineno)
            else:
                self._add(base, node.lineno)


def build_graph(package_dir: str | Path, root: str | None = None) -> ModuleGraph:
    """Parse every ``*.py`` under ``package_dir`` into a :class:`ModuleGraph`.

    ``package_dir`` must be the top-level package directory (contain an
    ``__init__.py``); ``root`` defaults to the directory name.  Files
    that fail to parse are skipped here — the AST lint pass reports
    them separately.
    """
    package_dir = Path(package_dir)
    root = root or package_dir.name
    graph = ModuleGraph(root=root)
    paths: dict[str, Path] = {}
    for path in sorted(package_dir.rglob("*.py")):
        relative = path.relative_to(package_dir).with_suffix("")
        parts = [root, *relative.parts]
        if parts[-1] == "__init__":
            parts = parts[:-1]
        paths[".".join(parts)] = path
    graph.modules = paths
    for module, path in paths.items():
        try:
            tree = ast.parse(path.read_text())
        except SyntaxError:
            continue
        is_package = path.name == "__init__.py"
        _ImportVisitor(module, is_package, graph).visit(tree)
    return graph


def _ancestors(module: str) -> list[str]:
    parts = module.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts))]


def _eager_adjacency(graph: ModuleGraph) -> dict[str, dict[str, int]]:
    """Module -> {imported module -> first import line}, init semantics.

    Importing a module also initializes its enclosing packages, so each
    eager edge fans out to the target's ancestors — except ancestors
    the importer shares (its own package chain is mid-init by
    definition, never a fresh import).
    """
    adjacency: dict[str, dict[str, int]] = {module: {} for module in graph.modules}
    for edge in graph.edges:
        if edge.type_checking or edge.lazy:
            continue
        src_ancestors = set(_ancestors(edge.src))
        targets = [edge.target, *_ancestors(edge.target)]
        for target in targets:
            if target not in graph.modules:
                continue
            if target == edge.src or target in src_ancestors:
                continue
            adjacency[edge.src].setdefault(target, edge.line)
    return adjacency


def find_cycles(graph: ModuleGraph) -> list[list[str]]:
    """Strongly connected components of size > 1 in the eager graph.

    Each cycle is returned as a sorted module list; the result is
    sorted by first module so output is deterministic.
    """
    components = strongly_connected_components(_eager_adjacency(graph))
    return sorted(list(component) for component in components if len(component) > 1)


def cycle_findings(graph: ModuleGraph) -> list[Finding]:
    """One IMPORT-CYCLE finding per eager-import cycle."""
    findings = []
    adjacency = _eager_adjacency(graph)
    for component in find_cycles(graph):
        members = set(component)
        anchor = component[0]
        line = min(
            (line for target, line in adjacency[anchor].items() if target in members),
            default=1,
        )
        findings.append(
            Finding(
                rule=CYCLE_RULE_ID,
                path=str(graph.modules[anchor]),
                line=line,
                col=1,
                message=(
                    "eager import cycle: "
                    + " -> ".join(component + [component[0]])
                    + " (break it with a lazy function-local import or a "
                    "TYPE_CHECKING guard)"
                ),
            )
        )
    return findings


def package_dependencies(
    graph: ModuleGraph, leaf_modules: frozenset[str] = contract.LEAF_MODULES
) -> dict[str, set[str]]:
    """Observed package -> package runtime dependencies, leaf-exempt.

    This is the aggregation the contract test pins against
    :data:`repro.devtools.contract.ALLOWED_PACKAGE_DEPS`.
    """
    dependencies: dict[str, set[str]] = {}
    for module in graph.modules:
        dependencies.setdefault(contract.package_of(module, graph.root), set())
    for edge in graph.edges:
        if edge.type_checking or edge.target in leaf_modules:
            continue
        src_pkg = contract.package_of(edge.src, graph.root)
        tgt_pkg = contract.package_of(edge.target, graph.root)
        if src_pkg != tgt_pkg:
            dependencies.setdefault(src_pkg, set()).add(tgt_pkg)
    return dependencies


def layering_findings(
    graph: ModuleGraph,
    allowed: dict[str, frozenset[str]] | None = None,
    leaf_modules: frozenset[str] | None = None,
) -> list[Finding]:
    """One LAYER-CONTRACT finding per import that breaks the layering.

    ``allowed``/``leaf_modules`` default to the repository contract;
    tests pass synthetic contracts for synthetic packages.
    """
    findings = []
    allowed = contract.ALLOWED_PACKAGE_DEPS if allowed is None else allowed
    leaves = contract.LEAF_MODULES if leaf_modules is None else leaf_modules
    for edge in graph.edges:
        if edge.type_checking or edge.target in leaves:
            continue
        src_pkg = contract.package_of(edge.src, graph.root)
        tgt_pkg = contract.package_of(edge.target, graph.root)
        if src_pkg == tgt_pkg:
            continue
        if src_pkg not in allowed:
            message = (
                f"package {src_pkg!r} is not declared in the layering contract; "
                "add it to repro.devtools.contract.ALLOWED_PACKAGE_DEPS"
            )
        elif tgt_pkg not in allowed.get(src_pkg, frozenset()):
            message = (
                f"{edge.src} imports {edge.target}: layer {src_pkg!r} may not "
                f"depend on {tgt_pkg!r} (allowed: "
                f"{', '.join(sorted(allowed[src_pkg])) or 'nothing'})"
            )
        else:
            continue
        findings.append(
            Finding(
                rule=LAYER_RULE_ID,
                path=str(graph.modules[edge.src]),
                line=edge.line,
                col=1,
                message=message,
            )
        )
    findings.sort(key=Finding.sort_key)
    return findings


def graph_findings(package_dir: str | Path) -> list[Finding]:
    """Both structural checks over one package directory."""
    graph = build_graph(package_dir)
    return cycle_findings(graph) + layering_findings(graph)
