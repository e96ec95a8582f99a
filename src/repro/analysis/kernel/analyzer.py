"""The compiled-kernel readiness analysis (KERN001..KERN008).

Three passes over the program index the FLOW analyzer already builds:

1. **Attribute discipline** (KERN001/KERN002).  Every kernel-zone
   class gets an attribute table: the declared set (``__slots__``,
   class-level assignments, dataclass fields, everything ``self.x =``
   in ``__init__``/``__post_init__`` -- of the class *and its
   resolvable bases*) and, per attribute, the set of statically
   inferable assigned types.  The scan covers *all* kernel-zone
   functions, not just methods: a helper holding a typed reference to
   an instance (parameter annotation or constructor call) that invents
   an attribute or assigns a conflicting type is the cross-function
   case a per-class scan misses.
2. **Module hygiene** (KERN006).  A syntactic walk of each kernel
   module for constructs no Python compiler accepts: ``eval``/
   ``exec``/``locals()``/``globals()``/``vars()``/``compile``/
   ``__import__``, ``metaclass=`` arguments and dynamic attribute
   hooks.
3. **Dispatch reachability** (KERN003/004/005/007/008).  Entry points
   are the engine-loop surface (``run``/``step``/``dispatch``/
   ``_drain`` in ``repro.sim.*``) plus every *escaped callback*: a
   kernel-zone function whose bound reference appears in a value
   position anywhere in the program (``engine.schedule(run_for,
   self._on_core_event, ...)``,
   ``core.idle_callbacks.append(self._idle_steal)``) or that is called
   from inside a lambda/nested def (the closure itself escapes into
   the event system, so its callees run at dispatch time).  A BFS over
   the converged FLOW call summaries -- augmented with typed-attribute
   edges (``self.rq.push(...)`` resolves through the ``__init__``
   assignment ``self.rq = CfsRunQueue()``) and subclass override
   propagation -- marks the hot set; the per-event rules fire only
   inside it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.flow.callgraph import FunctionInfo, ProgramIndex
from repro.analysis.flow.summaries import FlowAnalysis
from repro.analysis.kernel.rules import KernelFinding

__all__ = [
    "KERNEL_ZONE",
    "ENTRY_NAMES",
    "KERN007_BUDGET",
    "KernelAnalysis",
    "kernel_module",
]

#: module-name prefixes that make up the kernel (compilation) zone
KERNEL_ZONE = ("repro.sim", "repro.sched", "repro.balance", "repro.mem")

#: engine-loop surface: functions with these names in ``repro.sim.*``
#: are dispatch roots even without an escaped reference
ENTRY_NAMES = frozenset({"run", "step", "dispatch", "_drain"})

#: per-function budget of in-loop container allocations (KERN007); the
#: heap triple ``(time, seq, event)`` and one scratch container are the
#: sanctioned per-event allocations
KERN007_BUDGET = 2

#: constructors that allocate a container (KERN007)
_CONTAINER_CALLS = frozenset(
    {"list", "dict", "set", "frozenset", "tuple", "bytearray", "deque"}
)

#: names whose call is never compilable (KERN006)
_FORBIDDEN_CALLS = frozenset(
    {"eval", "exec", "locals", "globals", "vars", "compile", "__import__"}
)

#: defining any of these on a kernel class is dynamic-attribute
#: machinery the compiler cannot see through (KERN006)
_DYNAMIC_HOOKS = frozenset(
    {"__getattr__", "__getattribute__", "__setattr__", "__delattr__"}
)

#: methods that may create instance attributes (KERN001 exemption)
_CTOR_METHODS = frozenset({"__init__", "__post_init__", "__init_subclass__"})

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
    """One ``<instance>.attr = value`` assignment."""

    fn: FunctionInfo
    node: ast.AST
    method: Optional[str]  # method name when assigned via self, else None
    typ: Optional[str]  # inferred type, None = not inferable


@dataclass
class _ClassTable:
    """Attribute discipline state for one kernel class."""

    declared: set[str] = field(default_factory=set)  # __init__/slots/class level
    has_slots: bool = False
    sites: dict[str, list[_AttrSite]] = field(default_factory=dict)

    def record(self, attr: str, site: _AttrSite) -> None:
        self.sites.setdefault(attr, []).append(site)


class KernelAnalysis:
    """Drives the three passes and collects the findings."""

    def __init__(self, program: ProgramIndex, flow: FlowAnalysis):
        self.program = program
        self.flow = flow
        self.findings: list[KernelFinding] = []
        self._seen: set = set()
        self.tables: dict[str, _ClassTable] = {}
        #: class qual -> attr -> class quals the attr may hold
        self.attr_classes: dict[str, dict[str, frozenset[str]]] = {}
        self.reachable: dict[str, str] = {}  # qual -> witness entry point
        self._ancestry_cache: dict[str, list[str]] = {}
        self._env_cache: dict[str, dict[str, frozenset[str]]] = {}

    # -- shared ----------------------------------------------------------
    def emit(self, fn_qual: str, module, node: ast.AST, rule: str, message: str) -> None:
        path = str(module.path)
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        key = (path, line, col, rule)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            KernelFinding(
                path=path, line=line, col=col, rule=rule,
                message=message, function=fn_qual,
            )
        )

    def _kernel_functions(self) -> Iterator[FunctionInfo]:
        for qual in sorted(self.program.functions):
            fn = self.program.functions[qual]
            if kernel_module(fn.module.name):
                yield fn

    def run(self) -> list[KernelFinding]:
        self._collect_attr_types()
        self._env_cache.clear()  # final envs must see the settled map
        self._collect_attr_tables()
        self._report_attr_rules()
        self._report_module_hygiene()
        self._compute_reachability()
        self._report_hot_rules()
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
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

    def _declared_attrs(self, class_qual: str) -> set[str]:
        declared: set[str] = set()
        for q in self._ancestry(class_qual):
            table = self.tables.get(q)
            if table is not None:
                declared |= table.declared
        return declared

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
                        cls = self._annotation_class(item.annotation, info.module.name)
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
                        cls = self._annotation_class(ann, ctor.module.name)
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
                    cls = self._annotation_class(
                        callee.node.returns, callee.module.name
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
                cls = self._annotation_class(arg.annotation, fn.module.name)
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
    # pass 1: attribute discipline (KERN001/KERN002)
    # ------------------------------------------------------------------
    def _collect_attr_tables(self) -> None:
        for qual in sorted(self.program.classes):
            info = self.program.classes[qual]
            if not kernel_module(info.module.name):
                continue
            table = self.tables.setdefault(qual, _ClassTable())
            for item in info.node.body:
                if isinstance(item, ast.Assign):
                    for t in item.targets:
                        if isinstance(t, ast.Name):
                            if t.id == "__slots__":
                                table.has_slots = True
                                table.declared.update(self._slot_names(item.value))
                            else:
                                table.declared.add(t.id)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    # class-level annotation: a declared (dataclass) field
                    table.declared.add(item.target.id)

        # first the constructors (they define the declared set), then
        # every other kernel function (they may only touch declared attrs)
        ctor_fns, other_fns = [], []
        for fn in self._kernel_functions():
            if fn.class_qual is not None and fn.name in _CTOR_METHODS:
                ctor_fns.append(fn)
            else:
                other_fns.append(fn)
        for fn in ctor_fns:
            self._scan_function_attrs(fn, declaring=True)
        for fn in other_fns:
            self._scan_function_attrs(fn, declaring=False)

    @staticmethod
    def _slot_names(value: ast.expr) -> list[str]:
        names: list[str] = []
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for elt in value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    names.append(elt.value)
        elif isinstance(value, ast.Constant) and isinstance(value.value, str):
            names.append(value.value)
        return names

    def _scan_function_attrs(self, fn: FunctionInfo, declaring: bool) -> None:
        instance = self._instance_map(fn)
        if not instance:
            return
        method = fn.name if fn.class_qual is not None else None
        for node in ast.walk(fn.node):
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value, annotation = [node.target], node.value, node.annotation
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], None
            else:
                continue
            for t in targets:
                if not (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)):
                    continue
                cls = instance.get(t.value.id)
                if cls is None or cls not in self.tables:
                    continue
                table = self.tables[cls]
                via_self = (
                    fn.class_qual is not None
                    and t.value.id == fn.self_name
                    and self._same_class_family(cls, fn.class_qual)
                )
                typ = (
                    self._annotation_type(annotation, fn)
                    if annotation is not None
                    else self._infer_type(value, fn)
                )
                site = _AttrSite(fn=fn, node=t, method=method if via_self else None, typ=typ)
                table.record(t.attr, site)
                if declaring and via_self:
                    table.declared.add(t.attr)

    def _instance_map(self, fn: FunctionInfo) -> dict[str, str]:
        """Local name -> kernel-class qual, from self/annotations/ctors.

        Single-class resolution only: the attribute rules need one
        definite class to charge a site to (ambiguous receivers would
        produce speculative findings).
        """
        instance: dict[str, str] = {}
        if fn.class_qual is not None and fn.self_name is not None:
            instance[fn.self_name] = fn.class_qual
        args = fn.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None:
                cls = self._annotation_class(arg.annotation, fn.module.name)
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

    def _annotation_class(self, annotation: ast.expr, module_name: str) -> Optional[str]:
        node = annotation
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # C | None / None | C keeps the class
            left, right = node.left, node.right
            if isinstance(left, ast.Constant) and left.value is None:
                node = right
            elif isinstance(right, ast.Constant) and right.value is None:
                node = left
            else:
                return None
        if isinstance(node, ast.Subscript):
            # Optional[C] keeps the class; other generics do not name an
            # instance whose attributes we can track
            base = node.value
            leaf = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            if leaf != "Optional":
                return None
            node = node.slice
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    node = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return None
        if not isinstance(node, (ast.Name, ast.Attribute)):
            return None
        target = self.program.expr_target(module_name, node)
        return target.ref if target.kind == "class" else None

    # -- KERN002 type inference -----------------------------------------
    def _infer_type(self, value: Optional[ast.expr], fn: FunctionInfo) -> Optional[str]:
        if value is None:
            return None
        if isinstance(value, ast.Constant):
            if value.value is None:
                return "None"
            if value.value is True or value.value is False:
                return "int"  # bool is an int subtype; stable under mypyc
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

    def _annotation_type(self, annotation: Optional[ast.expr], fn: FunctionInfo) -> Optional[str]:
        """Normalize an annotation to a KERN002 type name (best effort)."""
        if annotation is None:
            return None
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

    # -- reporting -------------------------------------------------------
    def _report_attr_rules(self) -> None:
        for cls in sorted(self.tables):
            cls_name = cls.rsplit(":", 1)[-1]
            declared = self._declared_attrs(cls)
            own_sites = self.tables[cls].sites
            for attr in sorted(own_sites):
                if not attr.startswith("__"):
                    self._check_kern001(cls_name, declared, attr, own_sites[attr])
                # KERN002 sees the whole family: a subclass method
                # re-typing an attribute declared by the base is exactly
                # the instability a per-class view would miss
                family_sites = list(own_sites[attr])
                for q in self._ancestry(cls)[1:]:
                    family_sites.extend(self.tables.get(q, _ClassTable()).sites.get(attr, []))
                self._check_kern002(cls_name, attr, family_sites)

    def _check_kern001(
        self,
        cls_name: str,
        declared: set[str],
        attr: str,
        sites: list[_AttrSite],
    ) -> None:
        if attr in declared:
            return
        # every assignment to an undeclared attribute is a creation site
        for site in sites:
            where = (
                f"method {site.method}()"
                if site.method is not None
                else f"{site.fn.name}() via a typed reference"
            )
            self.emit(
                site.fn.qual,
                site.fn.module,
                site.node,
                "KERN001",
                f"attribute `{attr}` created on kernel class {cls_name} in "
                f"{where}, outside __init__/__slots__; compiled classes have "
                "a fixed layout -- declare it in the constructor",
            )

    def _check_kern002(self, cls_name: str, attr: str, sites: list[_AttrSite]) -> None:
        typed = [(s, s.typ) for s in sites if s.typ is not None]
        kinds = sorted({t for _, t in typed})
        non_none = [t for t in kinds if t != "None"]
        if len(non_none) <= 1:
            return
        first_of: dict[str, _AttrSite] = {}
        for s, t in typed:
            first_of.setdefault(t, s)
        # anchor at the site introducing the second distinct type
        anchor = first_of[non_none[1]]
        self.emit(
            anchor.fn.qual,
            anchor.fn.module,
            anchor.node,
            "KERN002",
            f"attribute `{attr}` of kernel class {cls_name} is assigned "
            f"incompatible types across the class ({', '.join(non_none)}); "
            "type-unstable fields cannot be unboxed -- pick one type "
            "(None plus one type is fine)",
        )

    # ------------------------------------------------------------------
    # pass 2: module hygiene (KERN006)
    # ------------------------------------------------------------------
    def _report_module_hygiene(self) -> None:
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
                            "dynamic code execution/frame introspection is "
                            "not compilable",
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
                                "compiled classes must use plain `type`",
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
                                f"{item.name}; dynamic attribute hooks "
                                "defeat the fixed compiled layout",
                            )

    # ------------------------------------------------------------------
    # pass 3: dispatch reachability (KERN003/004/005/007/008)
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

    # -- the per-event rules ---------------------------------------------
    def _report_hot_rules(self) -> None:
        for fn in self._kernel_functions():
            if fn.qual not in self.reachable:
                continue
            via = self.reachable[fn.qual]
            self._check_kern003(fn, via)
            self._check_kern004(fn, via)
            self._check_kern005(fn, via)
            self._check_kern007(fn, via)
            self._check_kern008(fn, via)

    @staticmethod
    def _is_any(annotation: ast.expr) -> bool:
        node = annotation
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.strip() in ("Any", "typing.Any")
        if isinstance(node, ast.Name):
            return node.id == "Any"
        return isinstance(node, ast.Attribute) and node.attr == "Any"

    def _check_kern003(self, fn: FunctionInfo, via: str) -> None:
        args = fn.node.args
        params = list(args.posonlyargs + args.args + args.kwonlyargs)
        if fn.class_qual is not None and not fn.is_static and params:
            params = params[1:]  # self/cls needs no annotation
        missing = [p.arg for p in params if p.annotation is None]
        anys = [p.arg for p in params if p.annotation is not None and self._is_any(p.annotation)]
        no_return = fn.node.returns is None
        any_return = fn.node.returns is not None and self._is_any(fn.node.returns)
        if not (missing or anys or no_return or any_return):
            return
        problems = []
        if missing:
            problems.append(f"un-annotated parameter(s) {', '.join(sorted(missing))}")
        if anys:
            problems.append(f"Any-typed parameter(s) {', '.join(sorted(anys))}")
        if no_return:
            problems.append("missing return annotation")
        if any_return:
            problems.append("Any return annotation")
        self.emit(
            fn.qual,
            fn.module,
            fn.node,
            "KERN003",
            f"{fn.name}() is dispatch-reachable ({via}) but has "
            f"{'; '.join(problems)}; hot calls need precise static types "
            "to compile",
        )

    def _check_kern004(self, fn: FunctionInfo, via: str) -> None:
        args = fn.node.args
        if args.vararg is not None or args.kwarg is not None:
            star = "*" + args.vararg.arg if args.vararg is not None else "**" + args.kwarg.arg
            self.emit(
                fn.qual,
                fn.module,
                fn.node,
                "KERN004",
                f"{fn.name}() is dispatch-reachable ({via}) but takes "
                f"`{star}`; variadic signatures stay boxed when compiled -- "
                "spell the parameters out",
            )
        for node in self._own_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            splat = any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords
            )
            if splat:
                self.emit(
                    fn.qual,
                    fn.module,
                    node,
                    "KERN004",
                    f"argument splat in dispatch-reachable {fn.name}() "
                    f"({via}); *-/**-calls allocate a tuple/dict per call -- "
                    "pass arguments positionally",
                )

    def _check_kern005(self, fn: FunctionInfo, via: str) -> None:
        for node in ast.walk(fn.node):
            if node is fn.node:
                continue
            if isinstance(node, ast.Lambda):
                self.emit(
                    fn.qual,
                    fn.module,
                    node,
                    "KERN005",
                    f"lambda created in dispatch-reachable {fn.name}() "
                    f"({via}); per-event closures allocate and defeat "
                    "direct calls -- hoist to a method or precompute",
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.emit(
                    fn.qual,
                    fn.module,
                    node,
                    "KERN005",
                    f"nested def {node.name}() in dispatch-reachable "
                    f"{fn.name}() ({via}); per-event closures allocate -- "
                    "hoist to a method",
                )

    def _own_nodes(self, fn: FunctionInfo) -> Iterator[ast.AST]:
        """Walk ``fn``'s body without descending into nested defs."""
        stack: list[ast.AST] = list(ast.iter_child_nodes(fn.node))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # KERN005's territory
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_kern007(self, fn: FunctionInfo, via: str) -> None:
        allocations: list[ast.AST] = []
        loops: list[ast.AST] = []
        for node in self._own_nodes(fn):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                loops.append(node)
        for loop in loops:
            body = loop.body + getattr(loop, "orelse", [])
            for stmt in body:
                for node in ast.walk(stmt):
                    if isinstance(
                        node,
                        (
                            ast.List,
                            ast.Dict,
                            ast.Set,
                            ast.ListComp,
                            ast.DictComp,
                            ast.SetComp,
                            ast.GeneratorExp,
                        ),
                    ):
                        allocations.append(node)
                    elif isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load):
                        allocations.append(node)
                    elif (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in _CONTAINER_CALLS
                    ):
                        allocations.append(node)
        if len(allocations) <= KERN007_BUDGET:
            return
        allocations.sort(key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))
        first_over = allocations[KERN007_BUDGET]
        self.emit(
            fn.qual,
            fn.module,
            first_over,
            "KERN007",
            f"{len(allocations)} container allocations inside loops of "
            f"dispatch-reachable {fn.name}() ({via}), over the "
            f"per-function budget of {KERN007_BUDGET}; the per-event inner "
            "loop must run allocation-free -- hoist or reuse buffers",
        )

    def _check_kern008(self, fn: FunctionInfo, via: str) -> None:
        for node in self._own_nodes(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "hasattr")
            ):
                probe = node.func.id
                fix = (
                    "use a `type(x) is C` check on a known class or an "
                    "explicit kind field"
                    if probe == "isinstance"
                    else "declare the attribute in __init__ and test an "
                    "explicit flag"
                )
                self.emit(
                    fn.qual,
                    fn.module,
                    node,
                    "KERN008",
                    f"{probe}() probe in dispatch-reachable {fn.name}() "
                    f"({via}); runtime type/attribute dispatch defeats "
                    f"static binding -- {fix}",
                )
