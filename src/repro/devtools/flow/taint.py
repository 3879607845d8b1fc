"""Fixpoint taint analysis over the call graph: sources -> sinks.

The engine is an abstract interpreter over function bodies.  Each local
variable carries a set of **taint tokens**: kind tags from
:mod:`repro.devtools.flow.contract` (``CLOCK``, ``RNG``, ``ORDER``,
``ENV``, ``ADDR``, ``POOL``) plus parameter tokens ``P0..Pn`` that make
summaries polymorphic — a callee that returns its argument untouched
returns ``{P0}``, and the caller substitutes whatever taint the actual
argument carried.

Per function the engine produces a :class:`Summary`:

* ``returns`` — tokens the return value may carry;
* ``returns_set`` — a type fact (set-typed values feed the ORDER rule);
* ``param_sinks`` — parameters that flow into a sink *inside* the
  function, so a caller passing taint three frames above the sink is
  still caught.

Summaries converge in one pass over the SCC condensation of the call
graph (:func:`~repro.devtools.flow.symbols.condensation_order`):
callee-first order means every summary outside the current component is
final before it is read, and cyclic components iterate locally until
stable.  Findings are emitted in a second pass against the converged
summaries, so the fixpoint never duplicates a report.

Set-typedness is tracked from literals, comprehensions, ``set()`` /
``frozenset()`` constructors, set-operator algebra, and — the load-
bearing heuristic — *annotations*: a parameter, local, or dataclass
field annotated ``set[...]``/``frozenset[...]`` is set-typed, which is
how ``deployment.monitor_ids`` iteration is recognized three calls away
from its construction.  Plain ``dict`` iteration follows insertion
order and is treated as deterministic; ``set`` iteration is the hazard
(string hashes are salted per process, so iteration order varies run to
run).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.devtools.base import Finding
from repro.devtools.flow import contract as fc
from repro.devtools.flow.symbols import (
    CallSite,
    FunctionInfo,
    Program,
    annotation_is_set,
    class_of_annotation,
    condensation_order,
)

__all__ = ["Summary", "TAINT_RULE_ID", "ORDER_RULE_ID", "analyze_taint"]

TAINT_RULE_ID = "TAINT-RESULT"
ORDER_RULE_ID = "ORDER-LEAK"

#: Iteration cap for a single (possibly self-recursive) function body
#: and for a cyclic SCC; abstract states are small, so convergence is
#: fast and the cap is a backstop, not a tuning knob.
_MAX_ITER = 8

_KINDS = frozenset(
    {fc.KIND_CLOCK, fc.KIND_RNG, fc.KIND_ORDER, fc.KIND_ENV, fc.KIND_ADDR, fc.KIND_POOL}
)

#: Receiver methods that fold argument taint back into the receiver —
#: ``acc.append(x)`` taints ``acc`` with whatever ``x`` carried.
_RECEIVER_MUTATORS = frozenset(
    {"append", "add", "extend", "insert", "update", "setdefault", "appendleft"}
)

#: Set methods whose result is itself a set (no order exposed).
_SET_PRESERVING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Human-readable names for the kind tags, used in messages.
_KIND_LABEL = {
    fc.KIND_CLOCK: "wall-clock",
    fc.KIND_RNG: "OS-entropy RNG",
    fc.KIND_ORDER: "set-iteration-order",
    fc.KIND_ENV: "process-environment",
    fc.KIND_ADDR: "object-identity",
    fc.KIND_POOL: "pool-completion-order",
}


@dataclass(frozen=True)
class Summary:
    """The converged interprocedural effect of one function."""

    returns: frozenset[str] = frozenset()
    returns_set: bool = False
    #: (param index, sink label, sink line, exempt-kinds) — a caller
    #: passing taint into this parameter reaches the sink.
    param_sinks: tuple[tuple[int, str, int, frozenset[str]], ...] = ()


_EMPTY = Summary()


#: Annotation predicate shared with the symbol layer.
_annotation_is_set = annotation_is_set


def _set_typed_attributes(program: Program) -> frozenset[str]:
    """Attribute names annotated set-typed anywhere in the program.

    ``deployment.monitor_ids`` is set-typed because *some* class
    annotates a ``monitor_ids`` field ``frozenset[str]`` — name-based,
    deliberately: the analysis never knows the receiver's class for
    sure.  The claim must be *unanimous*, though: a name annotated
    ``frozenset`` in one record and ``tuple`` in another (the program
    has both a ``fields: frozenset[str]`` and a ``fields: tuple[...]``)
    says nothing about an arbitrary receiver, so conflicted names are
    dropped rather than guessed.
    """
    set_names: set[str] = set()
    other_names: set[str] = set()
    for module_name in sorted(program.modules):
        for stmt in ast.walk(program.modules[module_name].tree):
            if not isinstance(stmt, ast.ClassDef):
                continue
            for item in stmt.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    if _annotation_is_set(item.annotation):
                        set_names.add(item.target.id)
                    else:
                        other_names.add(item.target.id)
    return frozenset(set_names - other_names)


class _Analyzer:
    """One pass of the abstract interpreter over one function body."""

    def __init__(
        self,
        func: FunctionInfo,
        program: Program,
        summaries: dict[str, Summary],
        set_attrs: frozenset[str],
        emit: list[Finding] | None,
    ) -> None:
        self.func = func
        self.program = program
        self.summaries = summaries
        self.set_attrs = set_attrs
        self.emit = emit  # None during summary computation
        self.sites = {
            id(site.node): site
            for site in program.calls.get(func.qualname, [])
            if site.kind != "partial"
        }
        self.partial_sites = [
            site for site in program.calls.get(func.qualname, []) if site.kind == "partial"
        ]
        self.env: dict[str, frozenset[str]] = {}
        self.set_vars: set[str] = set()
        self.blake_vars: set[str] = set()
        self.ret: frozenset[str] = frozenset()
        self.ret_set = False
        self.param_sinks: list[tuple[int, str, int, frozenset[str]]] = []
        #: var name -> program-class qualname, for receiver-aware
        #: attribute typing (``deployment.monitor_ids`` is a set because
        #: *Deployment* says so, not because the name usually is one).
        self.var_class: dict[str, str] = {}
        module = program.modules.get(func.module)
        args = func.node.args
        for index, param in enumerate(func.params):
            self.env[param] = frozenset({f"P{index}"})
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if _annotation_is_set(arg.annotation):
                self.set_vars.add(arg.arg)
            if module is not None:
                cls = class_of_annotation(arg.annotation, module, program)
                if cls is not None:
                    self.var_class[arg.arg] = cls
        if func.is_method and func.class_qualname is not None and func.params:
            self.var_class.setdefault(func.params[0], func.class_qualname)

    # -- driving -------------------------------------------------------
    def run(self) -> Summary:
        previous: tuple | None = None
        for _ in range(_MAX_ITER):
            # digest tracking is statement-order-sensitive: reset per
            # sweep so sweep N never sees sweep N-1's "later" state as if
            # it happened "earlier".
            self.blake_vars.clear()
            self._exec_block(self.func.node.body)
            state = (self.ret, self.ret_set, tuple(self.param_sinks))
            if state == previous:
                break
            previous = state
        if _annotation_is_set(self.func.node.returns):
            self.ret_set = True
        return Summary(
            returns=frozenset(self.ret),
            returns_set=self.ret_set,
            param_sinks=tuple(sorted(set(self.param_sinks))),
        )

    # -- statements ----------------------------------------------------
    def _exec_block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self._taint(stmt.value)
            is_set = self._is_set(stmt.value)
            cls = self._class_of_value(stmt.value)
            for target in stmt.targets:
                self._assign(target, taint, is_set)
                if isinstance(target, ast.Name):
                    if cls is not None:
                        self.var_class[target.id] = cls
                    else:
                        self.var_class.pop(target.id, None)
            if isinstance(stmt.value, ast.Call):
                site = self.sites.get(id(stmt.value))
                called = (site.canonical if site else "") or (site.name if site else "")
                if (
                    called in fc.BLAKE2B_CONSTRUCTORS
                    or called.rsplit(".", 1)[-1] in fc.BLAKE2B_CONSTRUCTORS
                ):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            self.blake_vars.add(target.id)
        elif isinstance(stmt, ast.AnnAssign):
            taint = self._taint(stmt.value) if stmt.value else frozenset()
            is_set = _annotation_is_set(stmt.annotation) or (
                stmt.value is not None and self._is_set(stmt.value)
            )
            self._assign(stmt.target, taint, is_set)
            if isinstance(stmt.target, ast.Name):
                module = self.program.modules.get(self.func.module)
                cls = (
                    class_of_annotation(stmt.annotation, module, self.program)
                    if module is not None
                    else None
                )
                if cls is not None:
                    self.var_class[stmt.target.id] = cls
        elif isinstance(stmt, ast.AugAssign):
            taint = self._taint(stmt.value) | self._taint(stmt.target)
            self._assign(stmt.target, taint, False)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self._taint(stmt.iter)
            if self._is_set(stmt.iter):
                taint = taint | {fc.KIND_ORDER}
            self._assign(stmt.target, taint, False)
            self._loop([*stmt.body, *stmt.orelse])
        elif isinstance(stmt, ast.While):
            self._taint(stmt.test)
            self._loop([*stmt.body, *stmt.orelse])
        elif isinstance(stmt, ast.If):
            self._taint(stmt.test)
            self._branch(stmt.body, stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._taint(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(
                        item.optional_vars, taint, self._is_set(item.context_expr)
                    )
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.ret = self.ret | self._taint(stmt.value)
                self.ret_set = self.ret_set or self._is_set(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._taint(stmt.value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested defs are separate program functions
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._taint(child)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)

    def _loop(self, body: list[ast.stmt]) -> None:
        # Two body sweeps approximate the loop fixpoint: the second pass
        # sees bindings the first created, which covers accumulators.
        self._exec_block(body)
        self._exec_block(body)

    def _branch(self, body: list[ast.stmt], orelse: list[ast.stmt]) -> None:
        snapshot = dict(self.env)
        snap_sets = set(self.set_vars)
        snap_classes = dict(self.var_class)
        self._exec_block(body)
        after_body = dict(self.env)
        after_classes = dict(self.var_class)
        self.env = snapshot
        self.set_vars = snap_sets
        self.var_class = snap_classes
        self._exec_block(orelse)
        for name, tokens in after_body.items():
            self.env[name] = self.env.get(name, frozenset()) | tokens
        # classes must agree across branches to survive the join
        for name, cls in list(self.var_class.items()):
            if after_classes.get(name, cls) != cls:
                self.var_class.pop(name)
        for name, cls in after_classes.items():
            self.var_class.setdefault(name, cls)

    def _assign(self, target: ast.expr, taint: frozenset[str], is_set: bool) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
            if is_set:
                self.set_vars.add(target.id)
            else:
                self.set_vars.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, taint, False)
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                self.env[base.id] = self.env.get(base.id, frozenset()) | taint | self._taint(target.slice)
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name):
                self.env[base.id] = self.env.get(base.id, frozenset()) | taint
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taint, False)

    # -- expressions ---------------------------------------------------
    def _taint(self, node: ast.expr | None) -> frozenset[str]:
        if node is None or isinstance(node, (ast.Constant, ast.Lambda)):
            return frozenset()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            return self._taint(node.value)
        if isinstance(node, ast.Subscript):
            return self._taint(node.value) | self._taint(node.slice)
        if isinstance(node, ast.Call):
            return self._taint_call(node)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            result: frozenset[str] = frozenset()
            for element in node.elts:
                result = result | self._taint(element)
            return result
        if isinstance(node, ast.Dict):
            result = frozenset()
            for key in node.keys:
                if key is not None:
                    result = result | self._taint(key)
            for value in node.values:
                result = result | self._taint(value)
            return result
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            return self._taint_comprehension(node)
        if isinstance(node, ast.BoolOp):
            result = frozenset()
            for value in node.values:
                result = result | self._taint(value)
            return result
        if isinstance(node, ast.BinOp):
            return self._taint(node.left) | self._taint(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._taint(node.operand)
        if isinstance(node, ast.Compare):
            result = self._taint(node.left)
            for comparator in node.comparators:
                result = result | self._taint(comparator)
            return result
        if isinstance(node, ast.IfExp):
            return self._taint(node.test) | self._taint(node.body) | self._taint(node.orelse)
        if isinstance(node, ast.JoinedStr):
            result = frozenset()
            for value in node.values:
                result = result | self._taint(value)
            return result
        if isinstance(node, ast.FormattedValue):
            return self._taint(node.value)
        if isinstance(node, ast.Starred):
            return self._taint(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._taint(node.value)
        if isinstance(node, ast.Yield):
            return self._taint(node.value) if node.value else frozenset()
        if isinstance(node, ast.NamedExpr):
            taint = self._taint(node.value)
            self._assign(node.target, taint, self._is_set(node.value))
            return taint
        if isinstance(node, ast.Slice):
            result = frozenset()
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    result = result | self._taint(part)
            return result
        return frozenset()

    def _taint_comprehension(self, node: ast.expr) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        ordered_result = isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp))
        for generator in node.generators:
            iter_taint = self._taint(generator.iter)
            if self._is_set(generator.iter) and ordered_result:
                iter_taint = iter_taint | {fc.KIND_ORDER}
            self._assign(generator.target, iter_taint, False)
            result = result | iter_taint
            for condition in generator.ifs:
                self._taint(condition)
        if isinstance(node, ast.DictComp):
            result = result | self._taint(node.key) | self._taint(node.value)
        else:
            result = result | self._taint(node.elt)
        return result

    # -- calls ---------------------------------------------------------
    def _call_args(self, node: ast.Call) -> list[frozenset[str]]:
        return [self._taint(arg) for arg in node.args] + [
            self._taint(keyword.value) for keyword in node.keywords
        ]

    def _taint_call(self, node: ast.Call) -> frozenset[str]:
        site = self.sites.get(id(node))
        canonical = site.canonical if site is not None else ""
        spelled = site.name if site is not None else ""
        arg_taints = self._call_args(node)
        joined: frozenset[str] = frozenset()
        for taint in arg_taints:
            joined = joined | taint

        # sanitizers cut their kinds and add nothing
        sanitizer = fc.SANITIZERS.get(canonical) or fc.SANITIZERS.get(spelled)
        if sanitizer is not None:
            return joined - sanitizer

        result = joined
        exempt = self.func.module in fc.SOURCE_EXEMPT_MODULES

        # intrinsic sources
        source = fc.CALL_SOURCES.get(canonical) or fc.CALL_SOURCES.get(spelled)
        if source is not None and not exempt:
            result = result | source
        if (
            canonical in fc.UNSEEDED_RNG_CONSTRUCTORS
            or spelled in fc.UNSEEDED_RNG_CONSTRUCTORS
        ) and not node.args and not node.keywords and not exempt:
            result = result | {fc.KIND_RNG}
        if (canonical == "hash" or spelled == "hash") and not exempt:
            if not all(
                isinstance(arg, ast.Constant) and isinstance(arg.value, (int, float, bool))
                for arg in node.args
            ):
                result = result | {fc.KIND_ADDR}

        # set-order exposure through external/unknown consumers
        set_args = any(self._is_set(arg) for arg in node.args)
        if set_args and (site is None or not site.resolved):
            neutral = (
                canonical in fc.ORDER_NEUTRAL_CALLS
                or spelled in fc.ORDER_NEUTRAL_CALLS
            )
            method = spelled.rsplit(".", 1)[-1] if "." in spelled else ""
            if method in _SET_PRESERVING_METHODS or method in {"add", "discard", "remove"}:
                neutral = True
            if not neutral:
                result = result | {fc.KIND_ORDER}
        # .pop() on a set yields an arbitrary element
        if "." in spelled:
            receiver, _, method = spelled.rpartition(".")
            if method == "pop" and receiver in self.set_vars:
                result = result | {fc.KIND_ORDER}
            if method in _RECEIVER_MUTATORS and receiver in self.env:
                self.env[receiver] = self.env[receiver] | joined
            if method == "update" and receiver in self.blake_vars:
                self._sink_hit(node, "digest input", arg_taints, frozenset())

        # resolved callees: substitute summaries
        if site is not None and site.resolved:
            result = result | self._apply_summaries(site, node)

        # sink checks happen against the fully-propagated argument taint
        if self.emit is not None and site is not None:
            self._check_sinks(site, node)

        return result

    def _callee_offset(self, callee: FunctionInfo, site: CallSite) -> int:
        if (
            callee.params
            and callee.params[0] in {"self", "cls"}
            and (site.kind == "method" or "." in site.name or callee.is_method)
        ):
            # attribute-style call: the receiver fills the first param
            return 1
        return 0

    def _map_args(
        self, callee: FunctionInfo, site: CallSite, node: ast.Call
    ) -> dict[int, frozenset[str]]:
        """Call-site argument taints keyed by callee parameter index."""
        mapping: dict[int, frozenset[str]] = {}
        offset = self._callee_offset(callee, site)
        positional = node.args[1:] if site.kind == "partial" else node.args
        for position, arg in enumerate(positional):
            mapping[position + offset] = self._taint(arg)
        names = {param: index for index, param in enumerate(callee.params)}
        for keyword in node.keywords:
            if keyword.arg is not None and keyword.arg in names:
                mapping[names[keyword.arg]] = self._taint(keyword.value)
        if offset == 1 and "." in site.name:
            receiver = site.name.rsplit(".", 1)[0]
            mapping[0] = self.env.get(receiver, frozenset())
        return mapping

    def _apply_summaries(self, site: CallSite, node: ast.Call) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for target in site.targets:
            callee = self.program.functions.get(target)
            summary = self.summaries.get(target, _EMPTY)
            if callee is None:
                continue
            mapping = self._map_args(callee, site, node)
            for token in summary.returns:
                if token.startswith("P") and token[1:].isdigit():
                    result = result | mapping.get(int(token[1:]), frozenset())
                else:
                    result = result | {token}
            # taint passed into a parameter that reaches a sink inside
            # the callee (or deeper): report here, where the taint is.
            for index, label, line, exempt_kinds in summary.param_sinks:
                passed = mapping.get(index, frozenset())
                kinds = {t for t in passed if t in _KINDS} - exempt_kinds
                params = {t for t in passed if t.startswith("P")}
                if kinds and self.emit is not None:
                    self._emit_sink(node, label, kinds, via=target, line=line)
                for param_token in params:
                    self.param_sinks.append(
                        (int(param_token[1:]), label, line, frozenset(exempt_kinds))
                    )
        return result

    # -- sinks ---------------------------------------------------------
    def _check_sinks(self, site: CallSite, node: ast.Call) -> None:
        canonical, spelled = site.canonical, site.name
        label = fc.SINK_CALL_NAMES.get(canonical) or fc.SINK_CALL_NAMES.get(spelled)
        if label is not None:
            self._sink_hit(node, label, self._call_args(node), frozenset())
            return
        # record-class constructors, matched by resolved class or name
        class_name = ""
        if canonical.rsplit(".", 1)[-1] in fc.SINK_RECORD_CLASSES:
            class_name = canonical.rsplit(".", 1)[-1]
        elif spelled.rsplit(".", 1)[-1] in fc.SINK_RECORD_CLASSES:
            class_name = spelled.rsplit(".", 1)[-1]
        if class_name:
            self._check_record_sink(node, class_name)
            return
        # cache-key method sinks, by resolved method target
        for target in site.targets:
            cls_qual, _, method = target.rpartition(".")
            entry = fc.METHOD_SINKS.get(method)
            if entry is not None and cls_qual.rsplit(".", 1)[-1] in entry[0]:
                self._sink_hit(node, entry[1], self._call_args(node), frozenset())
                return

    def _record_fields(self, class_name: str, node: ast.Call) -> list[tuple[str, ast.expr]]:
        module = fc.SINK_RECORD_CLASSES[class_name]
        info = self.program.classes.get(f"{module}.{class_name}")
        fields = info.fields if info is not None else ()
        labelled: list[tuple[str, ast.expr]] = []
        for position, arg in enumerate(node.args):
            name = fields[position] if position < len(fields) else f"arg{position}"
            labelled.append((name, arg))
        for keyword in node.keywords:
            if keyword.arg is not None:
                labelled.append((keyword.arg, keyword.value))
        return labelled

    def _check_record_sink(self, node: ast.Call, class_name: str) -> None:
        exempt_fields = fc.TAINT_EXEMPT_FIELDS.get(class_name, frozenset())
        for field_name, arg in self._record_fields(class_name, node):
            exempt = (
                frozenset({fc.KIND_CLOCK}) if field_name in exempt_fields else frozenset()
            )
            label = f"field {field_name!r} of {class_name}"
            self._sink_hit(node, label, [self._taint(arg)], exempt)

    def _sink_hit(
        self,
        node: ast.Call,
        label: str,
        arg_taints: list[frozenset[str]],
        exempt: frozenset[str],
    ) -> None:
        joined: frozenset[str] = frozenset()
        for taint in arg_taints:
            joined = joined | taint
        kinds = {t for t in joined if t in _KINDS} - exempt
        if kinds:
            self._emit_sink(node, label, kinds)
        for token in sorted(t for t in joined if t.startswith("P") and t[1:].isdigit()):
            self.param_sinks.append((int(token[1:]), label, node.lineno, exempt))

    def _emit_sink(
        self,
        node: ast.AST,
        label: str,
        kinds: set[str],
        via: str | None = None,
        line: int | None = None,
    ) -> None:
        if self.emit is None:
            return
        order = {fc.KIND_ORDER} & kinds
        rest = kinds - order
        suffix = f" via {via}" if via else ""
        if order:
            self.emit.append(
                Finding(
                    rule=ORDER_RULE_ID,
                    path=self.func.path,
                    line=getattr(node, "lineno", self.func.lineno),
                    col=getattr(node, "col_offset", 0) + 1,
                    message=(
                        f"set-iteration order reaches {label}{suffix} in "
                        f"{self.func.qualname}; sort (or otherwise canonicalize) "
                        "before it escapes into an ordered artifact"
                    ),
                )
            )
        if rest:
            labels = ", ".join(sorted(_KIND_LABEL[k] for k in rest))
            self.emit.append(
                Finding(
                    rule=TAINT_RULE_ID,
                    path=self.func.path,
                    line=getattr(node, "lineno", self.func.lineno),
                    col=getattr(node, "col_offset", 0) + 1,
                    message=(
                        f"{labels} taint reaches {label}{suffix} in "
                        f"{self.func.qualname}; derive the value from seeded/"
                        "injected inputs or record the acceptance in the baseline"
                    ),
                )
            )

    # -- type predicates -----------------------------------------------
    def _class_of_value(self, node: ast.expr | None) -> str | None:
        """Program class a value expression constructs or returns."""
        if not isinstance(node, ast.Call):
            return None
        site = self.sites.get(id(node))
        if site is None:
            return None
        if site.canonical in self.program.classes:
            return site.canonical
        for target in site.targets:
            callee = self.program.functions.get(target)
            if callee is None or callee.node.returns is None:
                continue
            module = self.program.modules.get(callee.module)
            if module is None:
                continue
            cls = class_of_annotation(callee.node.returns, module, self.program)
            if cls is not None:
                return cls
        return None

    def _is_set(self, node: ast.expr | None) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Attribute):
            # receiver-aware first: when the receiver's class is known
            # and annotates this field, that annotation is the answer.
            if isinstance(node.value, ast.Name):
                info = self.program.classes.get(
                    self.var_class.get(node.value.id, "")
                )
                if info is not None and node.attr in info.fields:
                    return node.attr in info.set_fields
            return node.attr in self.set_attrs
        if isinstance(node, ast.Call):
            site = self.sites.get(id(node))
            canonical = site.canonical if site else ""
            spelled = site.name if site else ""
            if canonical in {"set", "frozenset"} or spelled in {"set", "frozenset"}:
                return True
            if "." in spelled:
                receiver, _, method = spelled.rpartition(".")
                if method in _SET_PRESERVING_METHODS and receiver in self.set_vars:
                    return True
            if site is not None and site.resolved:
                return any(
                    self.summaries.get(t, _EMPTY).returns_set for t in site.targets
                )
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set(node.left) or self._is_set(node.right)
        if isinstance(node, ast.IfExp):
            return self._is_set(node.body) or self._is_set(node.orelse)
        if isinstance(node, ast.NamedExpr):
            return self._is_set(node.value)
        return False


def compute_summaries(program: Program) -> dict[str, Summary]:
    """Converge every function's :class:`Summary`, callee-first."""
    set_attrs = _set_typed_attributes(program)
    summaries: dict[str, Summary] = {}
    for component in condensation_order(program):
        for _ in range(_MAX_ITER):
            changed = False
            for qualname in component:
                func = program.functions.get(qualname)
                if func is None:
                    continue
                updated = _Analyzer(func, program, summaries, set_attrs, None).run()
                if summaries.get(qualname) != updated:
                    summaries[qualname] = updated
                    changed = True
            if not changed:
                break
    return summaries


def analyze_taint(
    program: Program, summaries: dict[str, Summary] | None = None
) -> tuple[list[Finding], dict[str, Summary]]:
    """Findings plus converged summaries for ``program``.

    Summaries converge first (no findings emitted), then one reporting
    pass runs per function against the final summaries — so a cyclic
    SCC that takes three sweeps to stabilize still reports each flow
    exactly once.
    """
    if summaries is None:
        summaries = compute_summaries(program)
    set_attrs = _set_typed_attributes(program)
    findings: list[Finding] = []
    for qualname in sorted(program.functions):
        func = program.functions[qualname]
        _Analyzer(func, program, summaries, set_attrs, findings).run()
    unique = sorted(set(findings), key=Finding.sort_key)
    return unique, summaries
