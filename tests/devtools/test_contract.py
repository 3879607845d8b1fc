"""The declared contracts must match the code, exactly.

``contract.ALLOWED_PACKAGE_DEPS`` is a record, not an upper bound: a
dependency that exists but is undeclared fails here, and so does a
declared dependency nothing uses anymore.  The same holds for the
exemptions and sinks the rules read: an allowlisted module must still
make the call it is excused for, and a sink must name a method some
class defines.  The assertion message lists every mismatch so the fix
(amend the contract, or remove the import) is obvious from the test
output alone.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.devtools import contract
from repro.devtools.base import dotted
from repro.devtools.flow import contract as flow_contract
from repro.devtools.imports import build_graph, find_cycles, package_dependencies

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Every dotted call name the contracts count as a wall-clock read.
CLOCK_CALLS = frozenset(
    name
    for name, kinds in flow_contract.CALL_SOURCES.items()
    if flow_contract.KIND_CLOCK in kinds
)


def test_declared_layering_matches_observed_imports():
    observed = package_dependencies(build_graph(SRC))
    declared = {pkg: set(deps) for pkg, deps in contract.ALLOWED_PACKAGE_DEPS.items()}
    problems = []
    for pkg in sorted(set(observed) | set(declared)):
        extra = sorted(observed.get(pkg, set()) - declared.get(pkg, set()))
        stale = sorted(declared.get(pkg, set()) - observed.get(pkg, set()))
        for dep in extra:
            problems.append(
                f"undeclared: {pkg} -> {dep} "
                "(declare it in contract.ALLOWED_PACKAGE_DEPS or remove the import)"
            )
        for dep in stale:
            problems.append(
                f"stale: {pkg} -> {dep} is declared but no longer imported "
                "(drop it from contract.ALLOWED_PACKAGE_DEPS)"
            )
    assert not problems, "layering contract drift:\n" + "\n".join(problems)


def test_eager_import_graph_of_src_is_acyclic():
    assert find_cycles(build_graph(SRC)) == []


def test_hot_path_registry_modules_exist_on_disk():
    for module in contract.HOT_PATHS:
        relative = Path(*module.split(".")[1:])
        assert (SRC / relative.with_suffix(".py")).exists() or (
            SRC / relative / "__init__.py"
        ).exists(), f"contract.HOT_PATHS names missing module {module}"


def test_clock_and_json_allowlists_point_at_real_modules():
    for module in list(contract.CLOCK_ALLOWLIST) + list(contract.JSON_ALLOWLIST):
        relative = Path(*module.split(".")[1:])
        assert (SRC / relative.with_suffix(".py")).exists(), (
            f"allowlist names missing module {module}"
        )


def test_leaf_modules_are_real_and_leafy():
    graph = build_graph(SRC)
    for leaf in contract.LEAF_MODULES:
        assert leaf in graph.modules, f"LEAF_MODULES names missing module {leaf}"
        for edge in graph.edges_from(leaf):
            assert edge.target in contract.LEAF_MODULES, (
                f"leaf {leaf} imports non-leaf {edge.target}; "
                "a leaf must not pull in layered packages"
            )


def _module_tree(module):
    path = SRC / Path(*module.split(".")[1:]).with_suffix(".py")
    assert path.exists(), f"contract names missing module {module}"
    return ast.parse(path.read_text(), filename=str(path))


def _calls_in(module):
    return {
        dotted(node.func)
        for node in ast.walk(_module_tree(module))
        if isinstance(node, ast.Call)
    }


def test_clock_exemptions_cover_a_clock_call_their_module_makes():
    permitted = {
        module: CLOCK_CALLS if "*" in calls else calls & CLOCK_CALLS
        for module, calls in contract.CLOCK_ALLOWLIST.items()
    }
    for module in flow_contract.SOURCE_EXEMPT_MODULES:
        permitted.setdefault(module, CLOCK_CALLS)
    unused = sorted(
        module for module, calls in permitted.items() if not calls & _calls_in(module)
    )
    assert not unused, f"clock exemptions that cover no call: {unused}"


def test_method_sinks_name_methods_their_classes_define():
    methods: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                methods.setdefault(node.name, set()).update(
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    missing = sorted(
        method
        for method, (classes, _) in flow_contract.METHOD_SINKS.items()
        if not any(method in methods.get(cls, ()) for cls in classes)
    )
    assert not missing, f"METHOD_SINKS names methods no named class defines: {missing}"
