"""The KERN rules: what the native engine core assumes about the kernel.

``--engine native`` runs the drain loop and the CFS dispatch chain in C
(``repro/sim/backends/_native/engine_core.c``).  The C twin reads and
writes the hot objects' ``__slots__`` fields at fixed offsets and
recognises the core-event callback by function identity, so it stays
bit-identical to the reference chain only while the kernel zone
(``repro.sim.*``, ``repro.sched.*``, ``repro.balance.*``,
``repro.mem.*``) keeps the three properties below.  Each rule's check
method names the C code it protects.

======== =============================================================
KERN002  An attribute of a kernel class assigned incompatible types
         across the class family, or by a function holding a typed
         reference to an instance.  ``None`` plus exactly one other
         type is an Optional field and is fine.
KERN005  A lambda, closure or nested def created inside a
         dispatch-reachable function.
KERN006  ``eval``/``exec``/``locals()``/``globals()``/``vars()``/
         ``compile``/``__import__``, a ``metaclass=`` argument or a
         dynamic attribute hook (``__getattr__``, ``__getattribute__``,
         ``__setattr__``, ``__delattr__``) in a kernel module.
======== =============================================================

KERN002 and KERN006 apply zone-wide; KERN005 applies to the *hot set*.
Its roots are the engine-loop surface (``run``/``step``/``dispatch``/
``_drain`` in ``repro.sim.*``) plus every *escaped callback*: a
kernel-zone function whose bound reference appears in a value position
anywhere in the program (``engine.schedule(run_for,
self._on_core_event, ...)``, ``core.idle_callbacks.append(
self._idle_steal)``) or that is called from inside a lambda or nested
def (the closure itself escapes into the event system, so its callees
run at dispatch time).  A BFS over the converged FLOW call summaries --
augmented with typed-attribute edges (``self.rq.push(...)`` resolves
through the ``__init__`` assignment ``self.rq = CfsRunQueue()``) and
subclass overrides -- marks the hot set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.analysis.flow import FlowAnalysis
from repro.analysis.program import FunctionInfo, ProgramIndex, SourceModule
from repro.analysis.rules import Finding

__all__ = ["KERNEL_ZONE", "ENTRY_NAMES", "KernelAnalysis", "kernel_module"]

#: module-name prefixes that make up the kernel zone
KERNEL_ZONE = ("repro.sim", "repro.sched", "repro.balance", "repro.mem")

#: engine-loop surface: functions with these names in ``repro.sim.*``
#: are dispatch roots even without an escaped reference
ENTRY_NAMES = frozenset({"run", "step", "dispatch", "_drain"})

#: constructors that allocate a container (KERN002 type names)
_CONTAINER_CALLS = frozenset(
    {"list", "dict", "set", "frozenset", "tuple", "bytearray", "deque"}
)

#: calls that run dynamic code or reach into frames (KERN006)
_FORBIDDEN_CALLS = frozenset(
    {"eval", "exec", "locals", "globals", "vars", "compile", "__import__"}
)

#: attribute hooks the native engine's direct slot access bypasses (KERN006)
_DYNAMIC_HOOKS = frozenset(
    {"__getattr__", "__getattribute__", "__setattr__", "__delattr__"}
)

#: builtin container types KERN002 can name from a literal/constructor
_LITERAL_TYPES = {
    ast.List: "list",
    ast.ListComp: "list",
    ast.Dict: "dict",
    ast.DictComp: "dict",
    ast.Set: "set",
    ast.SetComp: "set",
    ast.Tuple: "tuple",
}


def kernel_module(name: str) -> bool:
    """Is dotted module ``name`` inside the kernel zone?"""
    return any(name == z or name.startswith(z + ".") for z in KERNEL_ZONE)


@dataclass
class _AttrSite:
    """One ``<instance>.attr = value`` assignment with an inferable type."""

    fn: FunctionInfo
    node: ast.AST
    typ: str


class KernelAnalysis:
    """Runs the KERN rules over an index whose FLOW fixpoint is solved."""

    def __init__(self, program: ProgramIndex, flow: FlowAnalysis):
        self.program = program
        self.flow = flow
        self.findings: list[Finding] = []
        self._seen: set = set()
        #: kernel class qual -> attr -> typed assignment sites (KERN002)
        self.sites: dict[str, dict[str, list[_AttrSite]]] = {}
        #: class qual -> attr -> class quals the attr may hold
        self.attr_classes: dict[str, dict[str, frozenset[str]]] = {}
        self.reachable: dict[str, str] = {}  # qual -> witness entry point
        self._ancestry_cache: dict[str, list[str]] = {}
        self._env_cache: dict[str, dict[str, frozenset[str]]] = {}

    # -- shared ----------------------------------------------------------
    def emit(
        self, fn_qual: str, module: SourceModule, node: ast.AST, rule: str, message: str
    ) -> None:
        path = str(module.path)
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        key = (path, line, col, rule)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(
                path=path, line=line, col=col, rule=rule,
                message=message, function=fn_qual,
            )
        )

    def _kernel_functions(self) -> Iterator[FunctionInfo]:
        for qual in sorted(self.program.functions):
            fn = self.program.functions[qual]
            if kernel_module(fn.module.name):
                yield fn

    def run(self) -> list[Finding]:
        self._collect_attr_types()
        self._env_cache.clear()  # final envs must see the settled map
        self._collect_attr_sites()
        self._report_kern002()
        self._report_kern006()
        self._compute_reachability()
        self._report_kern005()
        return self.findings

    # ------------------------------------------------------------------
    # class hierarchy helpers
    # ------------------------------------------------------------------
    def _ancestry(self, class_qual: str) -> list[str]:
        """The class and its resolvable bases, nearest first."""
        cached = self._ancestry_cache.get(class_qual)
        if cached is not None:
            return cached
        out: list[str] = []
        frontier = [class_qual]
        while frontier:
            q = frontier.pop(0)
            if q in out:
                continue
            out.append(q)
            info = self.program.classes.get(q)
            if info is None:
                continue
            for base in info.node.bases:
                t = self.program.expr_target(info.module.name, base)
                if t.kind == "class":
                    frontier.append(t.ref)
        self._ancestry_cache[class_qual] = out
        return out

    def _same_class_family(self, cls: str, class_qual: str) -> bool:
        """Is ``class_qual`` the same class as ``cls`` or a subclass?"""
        return cls in self._ancestry(class_qual)

    def _attr_classes_of(self, class_qual: str, attr: str) -> frozenset[str]:
        for q in self._ancestry(class_qual):
            found = self.attr_classes.get(q, {}).get(attr)
            if found:
                return found
        return frozenset()

    # ------------------------------------------------------------------
    # typed-attribute map: class -> attr -> classes it may hold
    # ------------------------------------------------------------------
    def _collect_attr_types(self) -> None:
        # two rounds so one level of attribute-read chaining settles
        # (``self.engine = system.engine`` needs System's map first);
        # cached envs resolve through attr_classes, so drop them between
        # rounds while the map is still growing
        for _ in range(2):
            self._env_cache.clear()
            for qual in sorted(self.program.classes):
                info = self.program.classes[qual]
                table = self.attr_classes.setdefault(qual, {})
                for item in info.node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        cls = self.program.annotation_class(
                            info.module.name, item.annotation
                        )
                        if cls is not None:
                            table.setdefault(item.target.id, frozenset({cls}))
                ctor = self.program.constructor_of(qual)
                if ctor is None:
                    continue
                self_name = ctor.self_name
                if self_name is None:
                    continue
                env = self._typed_env(ctor)
                for node in ast.walk(ctor.node):
                    target: Optional[ast.expr] = None
                    value: Optional[ast.expr] = None
                    ann: Optional[ast.expr] = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value, ann = node.target, node.value, node.annotation
                    else:
                        continue
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        continue
                    classes: frozenset[str] = frozenset()
                    if ann is not None:
                        cls = self.program.annotation_class(ctor.module.name, ann)
                        if cls is not None:
                            classes = frozenset({cls})
                    if not classes and value is not None:
                        classes = self._value_classes(value, ctor, env)
                    if classes:
                        current = table.get(target.attr, frozenset())
                        table[target.attr] = current | classes

    def _value_classes(
        self, value: ast.expr, fn: FunctionInfo, env: dict[str, frozenset[str]]
    ) -> frozenset[str]:
        """Which in-index classes a value expression may construct."""
        if isinstance(value, ast.IfExp):
            return self._value_classes(value.body, fn, env) | self._value_classes(
                value.orelse, fn, env
            )
        if isinstance(value, ast.Call):
            target = self.program.expr_target(fn.module.name, value.func)
            if target.kind == "class":
                return frozenset({target.ref})
            if target.kind == "function":
                callee = self.program.functions.get(target.ref)
                if callee is not None and callee.node.returns is not None:
                    cls = self.program.annotation_class(
                        callee.module.name, callee.node.returns
                    )
                    if cls is not None:
                        return frozenset({cls})
            return frozenset()
        if isinstance(value, (ast.Name, ast.Attribute)):
            return self._expr_instance_classes(value, fn, env)
        return frozenset()

    def _typed_env(self, fn: FunctionInfo) -> dict[str, frozenset[str]]:
        """Local name -> possible in-index classes, for call edges."""
        cached = self._env_cache.get(fn.qual)
        if cached is not None:
            return cached
        env: dict[str, frozenset[str]] = {}
        if fn.class_qual is not None and fn.self_name is not None:
            env[fn.self_name] = frozenset({fn.class_qual})
        args = fn.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None:
                cls = self.program.annotation_class(fn.module.name, arg.annotation)
                if cls is not None:
                    env[arg.arg] = frozenset({cls})
        # two rounds so ``rq = self.rq`` settles after ``self``
        for _ in range(2):
            for node in ast.walk(fn.node):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    continue
                name = node.targets[0].id
                if name in env:
                    continue
                classes = self._value_classes(node.value, fn, env)
                if classes:
                    env[name] = classes
        self._env_cache[fn.qual] = env
        return env

    def _expr_instance_classes(
        self, expr: ast.expr, fn: FunctionInfo, env: dict[str, frozenset[str]], _depth: int = 0
    ) -> frozenset[str]:
        """Classes an expression may be an instance of (depth-capped)."""
        if _depth > 4:
            return frozenset()
        if isinstance(expr, ast.Name):
            return env.get(expr.id, frozenset())
        if isinstance(expr, ast.Attribute):
            out: set[str] = set()
            for base_cls in self._expr_instance_classes(
                expr.value, fn, env, _depth + 1
            ):
                out |= self._attr_classes_of(base_cls, expr.attr)
            return frozenset(out)
        return frozenset()

    # ------------------------------------------------------------------
    # KERN002: type-stable attributes
    # ------------------------------------------------------------------
    def _collect_attr_sites(self) -> None:
        """Record every typed attribute assignment to a kernel class.

        The scan covers *all* kernel-zone functions, not just methods: a
        helper holding a typed reference to an instance (parameter
        annotation or constructor call) that assigns a conflicting type
        is the cross-function case a per-class scan misses.
        """
        for qual in sorted(self.program.classes):
            if kernel_module(self.program.classes[qual].module.name):
                self.sites[qual] = {}
        for fn in self._kernel_functions():
            instance = self._instance_map(fn)
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign):
                    targets, typ = node.targets, self._infer_type(node.value, fn)
                elif isinstance(node, ast.AnnAssign):
                    targets, typ = [node.target], self._annotation_type(node.annotation, fn)
                else:
                    continue
                if typ is None:
                    continue
                for t in targets:
                    if not (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)):
                        continue
                    cls = instance.get(t.value.id)
                    table = self.sites.get(cls) if cls is not None else None
                    if table is not None:
                        table.setdefault(t.attr, []).append(_AttrSite(fn, t, typ))

    def _instance_map(self, fn: FunctionInfo) -> dict[str, str]:
        """Local name -> kernel-class qual, from self/annotations/ctors.

        Single-class resolution only: the rule needs one definite class
        to charge a site to (ambiguous receivers would produce
        speculative findings).
        """
        instance: dict[str, str] = {}
        if fn.class_qual is not None and fn.self_name is not None:
            instance[fn.self_name] = fn.class_qual
        args = fn.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None:
                cls = self.program.annotation_class(fn.module.name, arg.annotation)
                if cls is not None:
                    instance[arg.arg] = cls
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                target = self.program.expr_target(fn.module.name, node.value.func)
                if target.kind == "class":
                    instance[node.targets[0].id] = target.ref
        return instance

    def _infer_type(self, value: ast.expr, fn: FunctionInfo) -> Optional[str]:
        if isinstance(value, ast.Constant):
            if value.value is None:
                return "None"
            if value.value is True or value.value is False:
                return "int"  # bool is an int subtype: PyLong_AsLongLong accepts it
            return type(value.value).__name__
        if isinstance(value, ast.UnaryOp) and isinstance(value.op, (ast.USub, ast.UAdd)):
            return self._infer_type(value.operand, fn)
        for node_type, name in _LITERAL_TYPES.items():
            if isinstance(value, node_type):
                return name
        if isinstance(value, ast.Lambda):
            return "callable"
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name) and func.id in _CONTAINER_CALLS | {
                "int",
                "float",
                "str",
                "bool",
                "bytes",
            }:
                return "int" if func.id == "bool" else func.id
            target = self.program.expr_target(fn.module.name, func)
            if target.kind == "class":
                return target.ref.rsplit(":", 1)[-1].rsplit(".", 1)[-1]
            if target.kind == "function":
                callee = self.program.functions.get(target.ref)
                if callee is not None and callee.node.returns is not None:
                    return self._annotation_type(callee.node.returns, callee)
        return None

    def _annotation_type(self, annotation: ast.expr, fn: FunctionInfo) -> Optional[str]:
        """Normalize an annotation to a KERN002 type name (best effort)."""
        node = annotation
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            base = node.value
            leaf = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            if leaf == "Optional":
                return self._annotation_type(node.slice, fn)
            return leaf.lower() if leaf is not None else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # X | None / None | X -> X; anything else is a union we skip
            left = self._annotation_type(node.left, fn)
            right = self._annotation_type(node.right, fn)
            if left == "None":
                return right
            if right == "None":
                return left
            return None
        if isinstance(node, ast.Constant) and node.value is None:
            return "None"
        if isinstance(node, (ast.Name, ast.Attribute)):
            target = self.program.expr_target(fn.module.name, node)
            if target.kind == "class":
                return target.ref.rsplit(":", 1)[-1].rsplit(".", 1)[-1]
            leaf = node.id if isinstance(node, ast.Name) else node.attr
            return "int" if leaf == "bool" else leaf
        return None

    def _report_kern002(self) -> None:
        """KERN002: one type per kernel attribute (``None`` allowed).

        ``sget_ll``/``sget_dbl`` in ``engine_core.c`` read a slot
        through ``PyLong_AsLongLong``/``PyFloat_AsDouble``, and
        ``sset_ll``/``sset_dbl`` write it back as a fixed C type.  An
        attribute that holds an int on one path and a float on another
        is rejected (``TypeError``) or silently re-typed by the C twin,
        so heap and native runs would diverge.  Type sites merge across
        the class family: a subclass method re-typing an attribute the
        base declares is exactly the instability a per-class view would
        miss.
        """
        for cls in sorted(self.sites):
            cls_name = cls.rsplit(":", 1)[-1]
            for attr in sorted(self.sites[cls]):
                sites = [
                    site
                    for q in self._ancestry(cls)
                    for site in self.sites.get(q, {}).get(attr, [])
                ]
                kinds = sorted({s.typ for s in sites} - {"None"})
                if len(kinds) <= 1:
                    continue
                # anchor at the first site of the second distinct type
                anchor = next(s for s in sites if s.typ == kinds[1])
                self.emit(
                    anchor.fn.qual,
                    anchor.fn.module,
                    anchor.node,
                    "KERN002",
                    f"attribute `{attr}` of kernel class {cls_name} is assigned "
                    f"incompatible types across the class ({', '.join(kinds)}); "
                    "the native engine reads and writes kernel attributes as "
                    "one fixed C type -- pick one type (None plus one type is "
                    "fine)",
                )

    # ------------------------------------------------------------------
    # KERN006: no dynamic attribute machinery in kernel modules
    # ------------------------------------------------------------------
    def _report_kern006(self) -> None:
        """KERN006: kernel objects are plain ``type`` instances with plain slots.

        ``sset`` in ``engine_core.c`` stores straight into a slot at
        its resolved offset, bypassing ``__setattr__``/``__delattr__``,
        and ``sget`` loads it the same way, bypassing
        ``__getattribute__``.  A kernel class defining one of those
        hooks (or a metaclass supplying them) would behave differently
        under the native engine; ``eval``/``exec``/frame introspection
        can rebind the state the C twin reads where no other rule can
        see it.
        """
        for module in sorted(self.program.modules, key=lambda m: m.name):
            if not kernel_module(module.name):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    if node.func.id in _FORBIDDEN_CALLS:
                        self.emit(
                            module.name,
                            module,
                            node,
                            "KERN006",
                            f"call to {node.func.id}() in a kernel module; "
                            "dynamic code and frame introspection can rebind "
                            "state the native engine reads directly",
                        )
                elif isinstance(node, ast.ClassDef):
                    for kw in node.keywords:
                        if kw.arg == "metaclass":
                            self.emit(
                                f"{module.name}:{node.name}",
                                module,
                                node,
                                "KERN006",
                                f"kernel class {node.name} uses a metaclass; "
                                "the native engine assumes plain `type` "
                                "instances with fields at fixed slot offsets",
                            )
                    for item in node.body:
                        if (
                            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and item.name in _DYNAMIC_HOOKS
                        ):
                            self.emit(
                                f"{module.name}:{node.name}.{item.name}",
                                module,
                                item,
                                "KERN006",
                                f"kernel class {node.name} defines "
                                f"{item.name}; the native engine reads and "
                                "writes slots at fixed offsets, bypassing "
                                "attribute hooks",
                            )

    # ------------------------------------------------------------------
    # KERN005: no closures on the dispatch path
    # ------------------------------------------------------------------
    def _entry_points(self) -> dict[str, str]:
        """qual -> reason, for every dispatch entry point."""
        roots: dict[str, str] = {}
        for fn in self._kernel_functions():
            if fn.name in ENTRY_NAMES and fn.module.name.startswith("repro.sim"):
                roots.setdefault(fn.qual, "engine-loop entry")
        for qual in sorted(self.program.functions):
            fn = self.program.functions[qual]
            for escaped in sorted(set(self._escaped_refs(fn))):
                if kernel_module(self.program.functions[escaped].module.name):
                    roots.setdefault(
                        escaped, f"callback reference escapes in {fn.name}()"
                    )
        return roots

    def _escaped_refs(self, fn: FunctionInfo) -> Iterator[str]:
        """In-index functions whose bound reference escapes from ``fn``.

        A reference escapes when it appears outside call position
        (stored, passed, returned), or when it is *called* from inside
        a lambda or nested def -- the closure is handed to the event
        system, so everything it calls runs at dispatch time.
        """
        env = self._typed_env(fn)

        def resolve(expr: ast.expr) -> Optional[str]:
            if isinstance(expr, ast.Name):
                target = self.program.resolve_name(fn.module.name, expr.id)
                if target.kind == "function":
                    return target.ref
                return None
            if isinstance(expr, ast.Attribute):
                for cls in self._expr_instance_classes(expr.value, fn, env):
                    meth = self.program.method_on(cls, expr.attr)
                    if meth is not None:
                        return meth
                target = self.program.expr_target(fn.module.name, expr)
                if target.kind == "function":
                    return target.ref
            return None

        def walk(node: ast.AST, in_closure: bool) -> Iterator[str]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call):
                    # the callee itself is escape-exempt unless we are
                    # already inside an escaping closure
                    if in_closure:
                        ref = resolve(child.func)
                        if ref is not None:
                            yield ref
                    else:
                        # still look *inside* the callee expression
                        # (e.g. a subscripted table of methods)
                        for sub in ast.iter_child_nodes(child.func):
                            yield from walk_expr(sub, in_closure)
                    for arg in child.args:
                        yield from walk_expr(arg, in_closure)
                    for kw in child.keywords:
                        yield from walk_expr(kw.value, in_closure)
                elif isinstance(child, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from walk(child, True)
                else:
                    yield from walk_expr(child, in_closure)

        def walk_expr(node: ast.AST, in_closure: bool) -> Iterator[str]:
            if isinstance(node, (ast.Name, ast.Attribute)):
                ref = resolve(node)
                if ref is not None:
                    yield ref
                    return
            if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(node, True)
                return
            yield from walk(node, in_closure)

        yield from walk(fn.node, False)

    def _overrides_of(self, qual: str) -> Iterator[str]:
        """Same-named methods on subclasses of the method's class."""
        fn = self.program.functions.get(qual)
        if fn is None or fn.class_qual is None:
            return
        for cls_qual in sorted(self.program.classes):
            if cls_qual == fn.class_qual:
                continue
            if not self._same_class_family(fn.class_qual, cls_qual):
                continue
            info = self.program.classes[cls_qual]
            if fn.name in info.methods:
                yield info.methods[fn.name]

    def _typed_call_edges(self, fn: FunctionInfo) -> Iterator[str]:
        """Call edges through typed attributes (``self.rq.push(...)``)."""
        env = self._typed_env(fn)
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            for cls in sorted(self._expr_instance_classes(node.func.value, fn, env)):
                meth = self.program.method_on(cls, node.func.attr)
                if meth is not None:
                    yield meth

    def _compute_reachability(self) -> None:
        witness = self.reachable
        frontier: list[str] = []
        for qual, reason in sorted(self._entry_points().items()):
            if qual not in witness:
                witness[qual] = reason
                frontier.append(qual)
        while frontier:
            next_frontier: list[str] = []
            for qual in frontier:
                fn = self.program.functions[qual]
                neighbours = list(sorted(self.flow.summary_of(qual).calls))
                neighbours.extend(sorted(set(self._typed_call_edges(fn))))
                neighbours.extend(self._overrides_of(qual))
                for callee in neighbours:
                    if callee not in witness and callee in self.program.functions:
                        witness[callee] = witness[qual]
                        next_frontier.append(callee)
            frontier = next_frontier

    def _report_kern005(self) -> None:
        """KERN005: dispatch-reachable code schedules bound methods, not closures.

        ``dispatch_event`` in ``engine_core.c`` takes the C dispatch
        chain only when ``PyMethod_GET_FUNCTION(cb) ==
        S.on_core_event``: the callback must be the bound method
        ``CoreSim._on_core_event``, with its state in the event payload.
        A closure in its place still runs, through the generic call
        path, so nothing fails -- the run silently loses the C chain,
        which shows only as a drop in ``sim.native.fused_ratio``.
        """
        for fn in self._kernel_functions():
            via = self.reachable.get(fn.qual)
            if via is None:
                continue
            for node in ast.walk(fn.node):
                if node is fn.node:
                    continue
                if isinstance(node, ast.Lambda):
                    what = "lambda created"
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    what = f"nested def {node.name}()"
                else:
                    continue
                self.emit(
                    fn.qual,
                    fn.module,
                    node,
                    "KERN005",
                    f"{what} in dispatch-reachable {fn.name}() ({via}); a "
                    "closure scheduled as an event callback misses the native "
                    "engine's C dispatch path -- hoist to a method and pass "
                    "state in the event payload",
                )
