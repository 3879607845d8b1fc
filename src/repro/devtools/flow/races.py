"""FORK-CAPTURE: fork-unsafe state crossing into worker tasks.

Encoded as reachability over the :class:`~repro.devtools.flow.symbols.
Program`: task callables handed to a dispatcher (``parallel_map``,
``executor.submit``) run in forked/spawned children; a function
reachable from one that constructs a nested :class:`PersistentPool`,
re-routes the ambient pool, or reads a module global bound to a lock
or executor is wiring a deadlock or a silently-dead object into the
worker.
"""

from __future__ import annotations

import ast

from repro.devtools.base import Finding
from repro.devtools.flow import contract as fc
from repro.devtools.flow.symbols import FunctionInfo, Program

__all__ = ["FORK_RULE_ID", "fork_capture_findings"]

FORK_RULE_ID = "FORK-CAPTURE"


def _canonical_ctor(module_bindings: dict[str, str], spelled: str) -> str:
    head, _, rest = spelled.partition(".")
    base = module_bindings.get(head, head)
    return f"{base}.{rest}" if rest else base


def _task_entries(program: Program) -> dict[str, tuple[str, int]]:
    """Worker-task functions: qualname -> (dispatch site caller, line)."""
    entries: dict[str, tuple[str, int]] = {}
    for caller in sorted(program.calls):
        func = program.functions[caller]
        module = program.modules[func.module]
        for site in program.calls[caller]:
            name = site.canonical or site.name
            index = fc.DISPATCHERS.get(name)
            if index is None:
                short = site.name.rsplit(".", 1)[-1] if site.name else ""
                index = fc.DISPATCHERS.get(short)
            if index is None or len(site.node.args) <= index:
                continue
            callable_arg = site.node.args[index]
            for target in _resolve_callable(callable_arg, func, module, program):
                entries.setdefault(target, (caller, site.line))
    return entries


def _resolve_callable(
    node: ast.expr, func: FunctionInfo, module, program: Program
) -> list[str]:
    """Program functions a task-callable argument can denote."""
    # functools.partial(f, ...) — unwrap to f
    if isinstance(node, ast.Call):
        spelled = _spell(node.func)
        canonical = _canonical_ctor(module.bindings, spelled) if spelled else ""
        if canonical in {"functools.partial", "partial"} and node.args:
            return _resolve_callable(node.args[0], func, module, program)
        return []
    spelled = _spell(node)
    if not spelled:
        return []
    head, _, rest = spelled.partition(".")
    if head in func.local_defs and not rest:
        return [func.local_defs[head]]
    canonical = _canonical_ctor(module.bindings, spelled)
    if canonical in program.functions:
        return [canonical]
    if canonical in program.classes:
        target = program.function_for_class_method(canonical, "__call__")
        return [target] if target else []
    return []


def _spell(node: ast.expr) -> str:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def _reachable(program: Program, roots: list[str]) -> dict[str, str]:
    """Worker-reachable functions, each attributed to one task entry.

    BFS from the sorted entry list so attribution is deterministic:
    the first (lexicographically earliest) entry that reaches a
    function names it in the finding message.
    """
    seen: dict[str, str] = {}
    queue = [(root, root) for root in roots if root in program.functions]
    while queue:
        current, origin = queue.pop(0)
        if current in seen:
            continue
        seen[current] = origin
        for site in program.calls.get(current, []):
            for target in site.targets:
                if target not in seen and target in program.functions:
                    queue.append((target, origin))
    return seen


def _assigned_names(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
    return names


def fork_capture_findings(program: Program) -> list[Finding]:
    """Every FORK-CAPTURE finding over the program's worker-reachable set."""
    entries = _task_entries(program)
    reachable = _reachable(program, sorted(entries))
    findings: list[Finding] = []
    for qualname in sorted(reachable):
        func = program.functions[qualname]
        module = program.modules[func.module]
        origin = reachable[qualname]
        # nested pools / ambient-pool rerouting inside worker code
        for site in program.calls.get(qualname, []):
            name = site.canonical or site.name
            reason = fc.WORKER_FORBIDDEN_CALLS.get(name)
            if reason is None:
                reason = fc.WORKER_FORBIDDEN_CALLS.get(name.rsplit(".", 1)[-1])
            if reason is not None:
                findings.append(
                    Finding(
                        rule=FORK_RULE_ID,
                        path=func.path,
                        line=site.line,
                        col=site.node.col_offset + 1,
                        message=(
                            f"{func.qualname} {reason} but is reachable from "
                            f"worker task {origin}; pools must be constructed "
                            "by the parent only"
                        ),
                    )
                )
        # fork-unsafe module globals read from worker code
        local_names = set(func.params) | _assigned_names(func.node)
        flagged: set[str] = set()
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Name) or not isinstance(node.ctx, ast.Load):
                continue
            if node.id in local_names or node.id in flagged:
                continue
            ctor_entry = module.global_ctors.get(node.id)
            if ctor_entry is None:
                continue
            ctor = _canonical_ctor(module.bindings, ctor_entry[0])
            if (
                ctor in fc.FORK_UNSAFE_CONSTRUCTORS
                or ctor.rsplit(".", 1)[-1] in fc.FORK_UNSAFE_CONSTRUCTORS
            ):
                flagged.add(node.id)
                findings.append(
                    Finding(
                        rule=FORK_RULE_ID,
                        path=func.path,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        message=(
                            f"{func.qualname} captures fork-unsafe module "
                            f"global {node.id!r} ({ctor}) and is reachable "
                            f"from worker task {origin}; locks and pools do "
                            "not survive the fork"
                        ),
                    )
                )
    findings.sort(key=Finding.sort_key)
    return findings
