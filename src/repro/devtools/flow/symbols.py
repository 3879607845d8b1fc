"""Symbol table and call graph over a parsed tree — no imports executed.

:func:`build_program` parses every module under a package directory and
resolves, per function, where each call can land:

* **direct** — the callee is a function or method of the analyzed
  program (module-level name resolution through import aliases,
  ``self.method`` through the class and its in-program bases,
  ``obj.method`` when ``obj`` was locally constructed from a known
  class, closure calls to nested defs);
* **partial** — ``functools.partial(f, ...)`` contributes an edge to
  ``f`` at the partial site (the eventual call site is dynamic, but the
  flow into ``f`` is not);
* **external** — the callee provably lives outside the program (an
  imported third-party/stdlib module, a builtin, or a method name in
  the known-safe stdlib set);
* **UNRESOLVED** — everything else: higher-order parameters, dynamic
  attributes, ambiguous method names.  These are the analysis's honest
  soundness gaps; :mod:`repro.devtools.flow.deep` counts them against
  :data:`repro.devtools.flow.contract.UNRESOLVED_CALL_BUDGET`.

Resolution returns *sets* of candidate callees (method dispatch by
receiver-type heuristics can be one-to-many); the taint engine joins
over candidates, which is sound for may-analysis.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.base import module_name_for, strongly_connected_components
from repro.devtools.flow import contract as flow_contract

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "build_program",
    "condensation_order",
]

#: Candidate-set ceiling for the method-name dispatch heuristic: a
#: method name defined by more classes than this is too ambiguous to
#: guess and the call is reported UNRESOLVED instead.
_MAX_METHOD_CANDIDATES = 3

_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass(slots=True)
class FunctionInfo:
    """One function or method of the analyzed program."""

    qualname: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    lineno: int
    params: tuple[str, ...]
    class_qualname: str | None = None
    #: Names of nested defs, for closure-call resolution.
    local_defs: dict[str, str] = field(default_factory=dict)

    @property
    def is_method(self) -> bool:
        return self.class_qualname is not None


@dataclass(slots=True)
class ClassInfo:
    """One class: methods, base names, and annotated fields in order."""

    qualname: str
    module: str
    name: str
    lineno: int
    base_names: tuple[str, ...]
    methods: dict[str, str] = field(default_factory=dict)
    fields: tuple[str, ...] = ()
    #: The subset of ``fields`` annotated ``set[...]``/``frozenset[...]``.
    set_fields: frozenset[str] = frozenset()


@dataclass(slots=True)
class ModuleInfo:
    """One parsed module: bindings visible at module scope."""

    module: str
    path: str
    tree: ast.Module
    #: local name -> canonical dotted target ("numpy", "repro.x.f", ...).
    bindings: dict[str, str] = field(default_factory=dict)
    #: module-level ``NAME = Ctor(...)`` sites: name -> (ctor, line).
    global_ctors: dict[str, tuple[str, int]] = field(default_factory=dict)


@dataclass(slots=True)
class CallSite:
    """One call expression, with every candidate callee."""

    caller: str
    node: ast.Call
    name: str  # the dotted spelling at the call site ("" if not a name)
    canonical: str  # after import-alias rewriting ("" if unknown)
    targets: tuple[str, ...]  # resolved program-function qualnames
    kind: str  # "direct" | "method" | "partial" | "external" | "unresolved"
    line: int

    @property
    def resolved(self) -> bool:
        return bool(self.targets)


@dataclass(slots=True)
class Program:
    """Everything the dataflow passes need, built in one parse."""

    root: str
    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: caller qualname -> call sites, in source order.
    calls: dict[str, list[CallSite]] = field(default_factory=dict)
    #: method name -> class qualnames defining it (sorted).
    method_index: dict[str, tuple[str, ...]] = field(default_factory=dict)
    parse_errors: list[tuple[str, int, str]] = field(default_factory=list)

    def unresolved_sites(self) -> list[CallSite]:
        """Every UNRESOLVED call site, in (module, line) order."""
        sites = [
            site
            for caller in sorted(self.calls)
            for site in self.calls[caller]
            if site.kind == "unresolved"
        ]
        return sites

    def function_for_class_method(self, cls: str, method: str) -> str | None:
        """Resolve ``method`` on class ``cls`` through in-program bases."""
        seen: set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            module = self.modules.get(info.module)
            for base in info.base_names:
                target = _resolve_dotted(base, module, self) if module else None
                if target is not None and target in self.classes:
                    queue.append(target)
        return None


def annotation_is_set(node: ast.AST | None) -> bool:
    """True when an annotation expression names a set type."""
    if node is None:
        return False
    spelled = ast.unparse(node)
    head = spelled.split("[", 1)[0].strip()
    return head in {
        "set", "frozenset", "Set", "FrozenSet", "AbstractSet",
        "typing.Set", "typing.FrozenSet", "typing.AbstractSet",
        "collections.abc.Set",
    }


def class_of_annotation(
    annotation: ast.expr | None, module: ModuleInfo, program: Program
) -> str | None:
    """The program class an annotation names, resolved in ``module``.

    Understands ``X``, ``pkg.X``, ``X | None``, and string annotations;
    generics and anything else resolve to ``None``.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return class_of_annotation(annotation.left, module, program) or (
            class_of_annotation(annotation.right, module, program)
        )
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
        return class_of_annotation(annotation, module, program)
    spelled = _dotted(annotation)
    if not spelled:
        return None
    target = _resolve_dotted(spelled, module, program)
    if target is not None and target in program.classes:
        return target
    return None


def _resolve_dotted(name: str, module: ModuleInfo, program: Program) -> str | None:
    """Canonicalize a dotted spelling through module-level bindings."""
    if not name:
        return None
    head, _, rest = name.partition(".")
    target = module.bindings.get(head)
    if target is None:
        if head == module.module.rsplit(".", 1)[-1]:
            target = module.module
        else:
            return None
    return f"{target}.{rest}" if rest else target


class _ModuleCollector(ast.NodeVisitor):
    """First pass: bindings, defs, classes, module-global constructors."""

    def __init__(self, info: ModuleInfo, program: Program) -> None:
        self.info = info
        self.program = program
        self._class_stack: list[ClassInfo] = []
        self._func_stack: list[FunctionInfo] = []

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.info.bindings[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            parts = self.info.module.split(".")
            if self.info.path.endswith("__init__.py"):
                parts = parts + [""]  # package imports resolve from itself
            parts = parts[: len(parts) - node.level]
            base = ".".join([p for p in parts if p] + ([node.module] if node.module else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.info.bindings[local] = f"{base}.{alias.name}" if base else alias.name

    # -- defs ----------------------------------------------------------
    def _qualname(self, name: str) -> str:
        if self._func_stack:
            return f"{self._func_stack[-1].qualname}.{name}"
        if self._class_stack:
            return f"{self._class_stack[-1].qualname}.{name}"
        return f"{self.info.module}.{name}"

    def _visit_functiondef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        qualname = self._qualname(node.name)
        args = node.args
        params = tuple(
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        )
        enclosing_class = (
            self._class_stack[-1].qualname
            if self._class_stack and not self._func_stack
            else None
        )
        info = FunctionInfo(
            qualname=qualname,
            module=self.info.module,
            path=self.info.path,
            node=node,
            lineno=node.lineno,
            params=params,
            class_qualname=enclosing_class,
        )
        self.program.functions[qualname] = info
        if enclosing_class is not None:
            self._class_stack[-1].methods[node.name] = qualname
        elif self._func_stack:
            self._func_stack[-1].local_defs[node.name] = qualname
        else:
            self.info.bindings.setdefault(node.name, qualname)
        self._func_stack.append(info)
        for child in node.body:
            self.visit(child)
        self._func_stack.pop()

    visit_FunctionDef = _visit_functiondef
    visit_AsyncFunctionDef = _visit_functiondef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qualname(node.name)
        bases = []
        for base in node.bases:
            spelled = _dotted(base)
            if spelled:
                bases.append(spelled)
        info = ClassInfo(
            qualname=qualname,
            module=self.info.module,
            name=node.name,
            lineno=node.lineno,
            base_names=tuple(bases),
        )
        fields: list[str] = []
        set_fields: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                fields.append(stmt.target.id)
                if annotation_is_set(stmt.annotation):
                    set_fields.add(stmt.target.id)
        info.fields = tuple(fields)
        info.set_fields = frozenset(set_fields)
        self.program.classes[qualname] = info
        if not self._class_stack and not self._func_stack:
            self.info.bindings.setdefault(node.name, qualname)
        self._class_stack.append(info)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    # -- module globals ------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        at_module_scope = not self._class_stack and not self._func_stack
        if at_module_scope:
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(node.value, ast.Call):
                    spelled = _dotted(node.value.func)
                    if spelled:
                        self.info.global_ctors[target.id] = (spelled, node.lineno)
                elif isinstance(node.value, ast.Name):
                    # module-level alias: NAME = other (function aliases)
                    bound = self.info.bindings.get(node.value.id)
                    if bound is not None:
                        self.info.bindings.setdefault(target.id, bound)
        self.generic_visit(node)


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` spelling of an expression, or ``""``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


class _CallCollector(ast.NodeVisitor):
    """Second pass, per function: resolve every call expression."""

    def __init__(self, func: FunctionInfo, module: ModuleInfo, program: Program) -> None:
        self.func = func
        self.module = module
        self.program = program
        self.sites: list[CallSite] = []
        #: local var -> class qualname, from ``obj = ClassName(...)`` or
        #: a parameter annotated with a program class.
        self.local_types: dict[str, str] = {}
        #: locals provably bound to non-program objects (``parser =
        #: argparse.ArgumentParser()``): method calls on them are
        #: external, not unresolved.
        self.local_external: set[str] = set()
        args = func.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            cls = self._class_of_annotation(arg.annotation)
            if cls is not None:
                self.local_types[arg.arg] = cls

    def _class_of_annotation(self, annotation: ast.expr | None) -> str | None:
        """Program class named by a (possibly ``X | None``) annotation."""
        return class_of_annotation(annotation, self.module, self.program)

    def run(self) -> list[CallSite]:
        for stmt in self.func.node.body:
            self.visit(stmt)
        return self.sites

    # Nested defs get their own _CallCollector; don't descend into them.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Record receiver types for ``obj = ClassName(...)``.
        if isinstance(node.value, ast.Call):
            cls = self._class_of_call(node.value)
            if cls is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.local_types[target.id] = cls
            elif self._is_external_ctor(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.local_external.add(target.id)
        self.generic_visit(node)

    def _is_external_ctor(self, call: ast.Call) -> bool:
        """True when the call provably constructs a non-program object.

        Covers both direct external constructors (``argparse.
        ArgumentParser()``) and chained factories on an already-external
        receiver (``commands.add_parser(...)``), so argparse-style
        builder chains stay typed all the way down.
        """
        spelled = _dotted(call.func)
        if not spelled:
            return False
        head = spelled.partition(".")[0]
        if head in self.local_external:
            return True
        canonical = self._canonical(spelled)
        if canonical is None:
            return False
        root = self.program.root
        if canonical == root or canonical.startswith(root + "."):
            return False
        return (
            canonical not in self.program.functions
            and canonical not in self.program.classes
        )

    def _class_of_call(self, call: ast.Call) -> str | None:
        spelled = _dotted(call.func)
        canonical = self._canonical(spelled)
        if canonical is None:
            return None
        if canonical in self.program.classes:
            return canonical
        # factory functions: ``engine = engine_for(model)`` types the
        # local through the callee's return annotation.
        callee = self.program.functions.get(canonical)
        if callee is not None and callee.node.returns is not None:
            callee_module = self.program.modules.get(callee.module)
            if callee_module is not None:
                return class_of_annotation(
                    callee.node.returns, callee_module, self.program
                )
        return None

    def _canonical(self, spelled: str) -> str | None:
        if not spelled:
            return None
        head, _, rest = spelled.partition(".")
        # innermost scope first: nested defs, params, module bindings
        if head in self.func.local_defs:
            base = self.func.local_defs[head]
        elif head in self.func.params:
            return None  # higher-order: resolved at, not before, the call
        elif head in self.module.bindings:
            base = self.module.bindings[head]
        elif head in _BUILTIN_NAMES:
            base = head
        else:
            return None
        return f"{base}.{rest}" if rest else base

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        spelled = _dotted(node.func)
        site = self._resolve(node, spelled)
        self.sites.append(site)
        # functools.partial(f, ...) binds f here even though the actual
        # call happens elsewhere — record the flow edge at this site.
        canonical = site.canonical
        if canonical in {"functools.partial", "partial"} and node.args:
            inner = _dotted(node.args[0])
            bound = self._resolve_callable(inner)
            if bound:
                self.sites.append(
                    CallSite(
                        caller=self.func.qualname,
                        node=node,
                        name=inner,
                        canonical=self._canonical(inner) or inner,
                        targets=bound,
                        kind="partial",
                        line=node.lineno,
                    )
                )

    def _resolve_callable(self, spelled: str) -> tuple[str, ...]:
        """Program functions a bare callable reference can denote."""
        canonical = self._canonical(spelled)
        if canonical is None:
            return ()
        if canonical in self.program.functions:
            return (canonical,)
        if canonical in self.program.classes:
            init = self.program.function_for_class_method(canonical, "__init__")
            return (init,) if init else ()
        return ()

    def _resolve(self, node: ast.Call, spelled: str) -> CallSite:
        def site(targets: tuple[str, ...], kind: str, canonical: str = "") -> CallSite:
            return CallSite(
                caller=self.func.qualname,
                node=node,
                name=spelled,
                canonical=canonical,
                targets=targets,
                kind=kind,
                line=node.lineno,
            )

        if not spelled:
            # call-of-call / subscript call / lambda call: dynamic.
            return site((), "unresolved")

        head, _, rest = spelled.partition(".")

        # self.method(...) / cls.method(...) — the receiver type is the
        # enclosing class.
        if head in {"self", "cls"} and rest and self.func.class_qualname is not None:
            method = rest.split(".")[0]
            target = self.program.function_for_class_method(
                self.func.class_qualname, method
            )
            if target is not None:
                return site((target,), "direct", canonical=target)
            fallback = self._method_heuristic(node, spelled, method)
            if fallback.kind == "unresolved" and self._has_external_base(
                self.func.class_qualname
            ):
                # the method lives on a base class outside the program
                # (ast.NodeVisitor.visit, unittest helpers, ...)
                return site((), "external")
            return fallback

        # cls(...) inside a classmethod constructs the enclosing class.
        if head == "cls" and not rest and self.func.class_qualname is not None:
            init = self.program.function_for_class_method(
                self.func.class_qualname, "__init__"
            )
            return site(
                (init,) if init else (), "direct", canonical=self.func.class_qualname
            )

        # obj.method(...) where obj's type is known (local construction
        # or a program-class annotation).
        if rest and head in self.local_types:
            method = rest.split(".")[0]
            target = self.program.function_for_class_method(
                self.local_types[head], method
            )
            if target is not None:
                return site((target,), "direct", canonical=target)
            return self._method_heuristic(node, spelled, method)

        # obj.method(...) on a provably non-program object.
        if rest and head in self.local_external:
            return site((), "external")

        canonical = self._canonical(spelled)
        if canonical is None:
            if rest:
                # method on a parameter or untyped local: dispatch by
                # name, falling back to the known-safe stdlib set.
                return self._method_heuristic(node, spelled, rest.rsplit(".", 1)[-1])
            # bare higher-order parameter or unknown name: honest gap.
            return site((), "unresolved")

        if canonical in self.program.functions:
            return site((canonical,), "direct", canonical=canonical)
        if canonical in self.program.classes:
            init = self.program.function_for_class_method(canonical, "__init__")
            return site(
                (init,) if init else (), "direct", canonical=canonical
            )
        # Class.method(...) spelled through the class.
        base, _, attr = canonical.rpartition(".")
        if base in self.program.classes:
            target = self.program.function_for_class_method(base, attr)
            if target is not None:
                return site((target,), "direct", canonical=target)
        if canonical.startswith(self.program.root + ".") or canonical == self.program.root:
            # names inside the analyzed root that we cannot find: a
            # module attribute we did not model — unresolved, honestly.
            return site((), "unresolved", canonical=canonical)
        # externally-imported module, builtin, or stdlib: external.
        return site((), "external", canonical=canonical)

    def _has_external_base(self, cls: str) -> bool:
        """True when ``cls`` inherits from anything outside the program."""
        info = self.program.classes.get(cls)
        if info is None:
            return False
        module = self.program.modules.get(info.module)
        for base in info.base_names:
            target = _resolve_dotted(base, module, self.program) if module else None
            if target is None or target not in self.program.classes:
                return True
        return False

    def _method_heuristic(self, node: ast.Call, spelled: str, method: str) -> CallSite:
        """Dispatch by method name when the receiver type is unknown."""
        candidates = self.program.method_index.get(method, ())
        targets = tuple(
            self.program.classes[cls].methods[method] for cls in candidates
        )
        if 0 < len(targets) <= _MAX_METHOD_CANDIDATES:
            return CallSite(
                caller=self.func.qualname,
                node=node,
                name=spelled,
                canonical="",
                targets=targets,
                kind="method",
                line=node.lineno,
            )
        kind = (
            "external"
            if not targets and method in flow_contract.KNOWN_SAFE_METHODS
            else "unresolved"
        )
        return CallSite(
            caller=self.func.qualname,
            node=node,
            name=spelled,
            canonical="",
            targets=(),
            kind=kind,
            line=node.lineno,
        )


def build_program(package_dir: str | Path, root: str | None = None) -> Program:
    """Parse every ``*.py`` under ``package_dir`` into a :class:`Program`."""
    package_dir = Path(package_dir)
    root = root or package_dir.name
    program = Program(root=root)
    sources: list[tuple[str, Path, ast.Module]] = []
    for path in sorted(package_dir.rglob("*.py")):
        module = module_name_for(path)
        try:
            tree = ast.parse(path.read_text())
        except SyntaxError as exc:
            program.parse_errors.append((str(path), exc.lineno or 1, exc.msg or ""))
            continue
        sources.append((module, path, tree))
    # Pass 1: bindings, functions, classes.
    for module, path, tree in sources:
        info = ModuleInfo(module=module, path=str(path), tree=tree)
        program.modules[module] = info
        _ModuleCollector(info, program).visit(tree)
    # Canonicalize class-name bindings recorded as bare class qualnames.
    index: dict[str, list[str]] = {}
    for qualname in sorted(program.classes):
        for method in program.classes[qualname].methods:
            index.setdefault(method, []).append(qualname)
    program.method_index = {
        method: tuple(sorted(classes)) for method, classes in index.items()
    }
    # Pass 2: per-function call resolution.
    for qualname in sorted(program.functions):
        func = program.functions[qualname]
        module = program.modules[func.module]
        program.calls[qualname] = _CallCollector(func, module, program).run()
    return program


def condensation_order(program: Program) -> list[tuple[str, ...]]:
    """SCCs of the call graph in reverse topological (callee-first) order.

    Processing functions in this order lets the taint fixpoint compute
    each summary exactly once per SCC sweep: by the time a caller is
    analyzed, every callee outside its own SCC already has a final
    summary, and cycles iterate only within their component.
    """
    adjacency: dict[str, set[str]] = {
        qualname: {
            target
            for call_site in sites
            for target in call_site.targets
            if target in program.functions
        }
        for qualname, sites in program.calls.items()
    }
    return strongly_connected_components(adjacency)
