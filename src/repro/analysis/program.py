"""The parsed program every static rule runs over.

:func:`load_modules` parses every ``*.py`` under the given paths exactly
once and names each module by walking up its ``__init__.py`` chain (so
``src/repro/balance/linux.py`` is ``repro.balance.linux`` wherever the
tree sits on disk); discovery order is sorted, since the analyzer must
itself satisfy SIM006.  :class:`ProgramIndex` then resolves names
across those modules, so a call site in one module can be traced to the
function it names in another, through the import forms the codebase
actually uses:

* plain and aliased imports (``import repro.sim.rng as rng`` followed
  by ``rng.SimRng(...)``);
* from-imports and **re-export chains** (``from repro.balance import
  LinuxLoadBalancer`` where ``repro/balance/__init__.py`` itself does
  ``from repro.balance.linux import LinuxLoadBalancer``);
* relative imports (``from .linux import ...``);
* module-level aliases (``balance = compute_balance``);
* method calls on ``self`` and on locals whose class is known from a
  constructor call or an annotation, including methods inherited from
  resolvable base classes.

Resolution is *best effort and conservative*: anything that cannot be
pinned to an in-index definition becomes an ``external`` target
carrying its dotted name (still useful -- the store-key sink matches
``repro.store.keys`` functions by dotted name even when the store
package is outside the analyzed tree).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.analysis.rules import PARSE_ERROR, Finding

__all__ = [
    "SourceModule",
    "ModuleIndex",
    "module_name_for",
    "parse_module",
    "syntax_error",
    "load_modules",
    "Target",
    "FunctionInfo",
    "ClassInfo",
    "GlobalVar",
    "GlobalWrite",
    "ProgramIndex",
]

#: constructors whose module-level result is mutable state (FLOW004)
_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "dict",
        "list",
        "set",
        "bytearray",
        "defaultdict",
        "deque",
        "Counter",
        "OrderedDict",
    }
)

#: constructors producing stateful iterators (advancing one *is* a write)
_ITERATOR_CONSTRUCTORS = frozenset({"count", "cycle", "chain"})


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
@dataclass
class SourceModule:
    """One parsed source file."""

    name: str  # dotted module name, e.g. "repro.balance.linux"
    path: Path
    source: str
    tree: ast.Module
    lines: tuple[str, ...] = field(default_factory=tuple)

    def in_dirs(self, names: frozenset[str]) -> bool:
        """Is the module inside any directory named in ``names``?"""
        return bool(names.intersection(self.path.parts[:-1]))


def module_name_for(path: Path) -> str:
    """Dotted module name from the ``__init__.py`` chain above ``path``.

    A file outside any package keeps its bare stem, so single-file
    fixtures still analyze.
    """
    path = path.resolve()
    parts: list[str] = [] if path.stem == "__init__" else [path.stem]
    d = path.parent
    while (d / "__init__.py").exists():
        parts.insert(0, d.name)
        parent = d.parent
        if parent == d:  # filesystem root; defensive
            break
        d = parent
    return ".".join(parts) or path.stem


def parse_module(source: str, path: Path) -> SourceModule:
    """Parse one module's source; raises :class:`SyntaxError`."""
    return SourceModule(
        name=module_name_for(path),
        path=path,
        source=source,
        tree=ast.parse(source, filename=str(path)),
        lines=tuple(source.splitlines()),
    )


def syntax_error(path: Path, exc: SyntaxError) -> Finding:
    """The one finding a file that does not parse gets."""
    return Finding(
        path=str(path),
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        rule=PARSE_ERROR,
        message=f"syntax error: {exc.msg}",
        function=module_name_for(path),
    )


def _iter_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for p in paths:
        p = Path(p)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        else:
            yield p


class ModuleIndex:
    """Every parsed file, plus the files that did not parse."""

    def __init__(self) -> None:
        self.files: list[SourceModule] = []
        self.names: set[str] = set()
        self.errors: list[Finding] = []

    def add(self, module: SourceModule) -> None:
        self.files.append(module)
        self.names.add(module.name)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __iter__(self) -> Iterator[SourceModule]:
        return iter(self.files)


def load_modules(paths: Iterable[str | Path]) -> ModuleIndex:
    """Parse every ``*.py`` under ``paths`` into a :class:`ModuleIndex`."""
    index = ModuleIndex()
    for f in _iter_files(paths):
        try:
            index.add(parse_module(f.read_text(), f))
        except SyntaxError as exc:
            index.errors.append(syntax_error(f, exc))
    return index


# ----------------------------------------------------------------------
# the program index
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """Where a name points after resolution."""

    kind: str  # "module" | "function" | "class" | "external" | "unknown"
    ref: str  # module name, "mod:qual", or a dotted external path

    @property
    def dotted(self) -> str:
        """The target as a plain dotted path (for name-based sinks)."""
        return self.ref.replace(":", ".")


UNKNOWN = Target("unknown", "")


@dataclass
class FunctionInfo:
    """One analyzable function or method."""

    qual: str  # "repro.balance.linux:LinuxLoadBalancer.balance"
    module: SourceModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qual: Optional[str] = None
    is_static: bool = False

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def params(self) -> tuple[str, ...]:
        """Bindable parameter names, minus the implicit self/cls."""
        a = self.node.args
        names = [p.arg for p in a.posonlyargs + a.args]
        if self.class_qual is not None and not self.is_static and names:
            names = names[1:]
        names.extend(p.arg for p in a.kwonlyargs)
        return tuple(names)

    @property
    def self_name(self) -> Optional[str]:
        """The receiver parameter name of a bound method, if any."""
        if self.class_qual is None or self.is_static:
            return None
        a = self.node.args
        first = (a.posonlyargs + a.args)[:1]
        return first[0].arg if first else None


@dataclass
class ClassInfo:
    """One class definition with its methods and (unresolved) bases."""

    qual: str
    module: SourceModule
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)  # name -> func qual


@dataclass(frozen=True)
class GlobalVar:
    """A module-level name bound to a mutable object at import time."""

    module: str
    name: str
    lineno: int
    kind: str  # "container" | "iterator"

    @property
    def key(self) -> str:
        return f"{self.module}:{self.name}"


@dataclass(frozen=True)
class GlobalWrite:
    """One mutation of module-level state found inside a function."""

    var: GlobalVar
    lineno: int
    col: int
    how: str  # human phrase: "rebinds", "calls .append() on", ...


class ProgramIndex:
    """The whole-program name space the rules resolve against."""

    def __init__(self, modules: ModuleIndex) -> None:
        self.modules = modules
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: module name -> local name -> raw binding (lazily resolved)
        self._bindings: dict[str, dict[str, str]] = {}
        self._resolve_cache: dict[str, Target] = {}
        self._mutable_globals: dict[str, GlobalVar] = {}  # "mod:name" -> var
        for module in modules:
            self._collect(module)

    # -- construction ---------------------------------------------------
    def _collect(self, module: SourceModule) -> None:
        bindings: dict[str, str] = {}
        self._bindings[module.name] = bindings
        for node in module.tree.body:
            self._collect_stmt(module, bindings, node)

    def _collect_stmt(
        self, module: SourceModule, bindings: dict[str, str], node: ast.stmt
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{module.name}:{node.name}"
            self.functions[qual] = FunctionInfo(qual, module, node)
        elif isinstance(node, ast.ClassDef):
            self._collect_class(module, node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    root = alias.name.split(".", 1)[0]
                    bindings[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = self._import_base(module, node)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                bindings[bound] = f"{base}.{alias.name}" if base else alias.name
        elif isinstance(node, ast.Assign):
            self._collect_global_assign(module, bindings, node.targets, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._collect_global_assign(module, bindings, [node.target], node.value)
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING guards and import fallbacks still bind names
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._collect_stmt(module, bindings, child)

    def _collect_class(self, module: SourceModule, node: ast.ClassDef) -> None:
        qual = f"{module.name}:{node.name}"
        info = ClassInfo(qual, module, node)
        self.classes[qual] = info
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fq = f"{qual}.{item.name}"
                is_static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in item.decorator_list
                )
                self.functions[fq] = FunctionInfo(
                    fq, module, item, class_qual=qual, is_static=is_static
                )
                info.methods[item.name] = fq

    @staticmethod
    def _import_base(module: SourceModule, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        # relative import: strip `level` trailing components of the
        # importing module's package path
        parts = module.name.split(".")
        # a module's own name counts as one component beyond its package
        keep = len(parts) - node.level
        if module.path.stem == "__init__":
            keep = len(parts) - node.level + 1
        base = ".".join(parts[: max(keep, 0)])
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    def _collect_global_assign(
        self,
        module: SourceModule,
        bindings: dict[str, str],
        targets: list[ast.expr],
        value: ast.expr,
    ) -> None:
        kind = self._mutable_kind(value)
        for t in targets:
            if not isinstance(t, ast.Name):
                continue
            if kind is not None:
                var = GlobalVar(module.name, t.id, t.lineno, kind)
                self._mutable_globals[var.key] = var
            elif isinstance(value, ast.Name):
                # module-level alias: X = Y
                bindings[t.id] = value.id

    @staticmethod
    def _mutable_kind(value: ast.expr) -> Optional[str]:
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.SetComp)):
            return "container"
        if isinstance(value, (ast.ListComp, ast.DictComp)):
            return "container"
        if isinstance(value, ast.Call):
            name = None
            if isinstance(value.func, ast.Name):
                name = value.func.id
            elif isinstance(value.func, ast.Attribute):
                name = value.func.attr
            if name in _MUTABLE_CONSTRUCTORS:
                return "container"
            if name in _ITERATOR_CONSTRUCTORS:
                return "iterator"
        return None

    # -- resolution -----------------------------------------------------
    def mutable_global(self, module: str, name: str) -> Optional[GlobalVar]:
        return self._mutable_globals.get(f"{module}:{name}")

    def resolve_name(self, module: str, name: str) -> Target:
        """What ``name`` denotes at module scope of ``module``."""
        qual = f"{module}:{name}"
        if qual in self.functions:
            return Target("function", qual)
        if qual in self.classes:
            return Target("class", qual)
        bindings = self._bindings.get(module, {})
        if name in bindings:
            dotted = bindings[name]
            if "." not in dotted and dotted != name:
                # module-level alias to another local name
                return self.resolve_name(module, dotted)
            return self.resolve_dotted(dotted)
        if f"{module}.{name}" in self.modules:
            return Target("module", f"{module}.{name}")
        return UNKNOWN

    def resolve_dotted(self, dotted: str, _depth: int = 0) -> Target:
        """Resolve a dotted path against the index (longest module prefix)."""
        if _depth > 16 or not dotted:
            return UNKNOWN
        cached = self._resolve_cache.get(dotted)
        if cached is not None:
            return cached
        self._resolve_cache[dotted] = Target("external", dotted)  # cycle guard
        parts = dotted.split(".")
        target: Optional[Target] = None
        rest: list[str] = []
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                target = Target("module", prefix)
                rest = parts[cut:]
                break
        if target is None:
            result = Target("external", dotted)
        else:
            result = target
            for attr in rest:
                result = self.resolve_attr(result, attr, _depth + 1)
        self._resolve_cache[dotted] = result
        return result

    def resolve_attr(self, target: Target, attr: str, _depth: int = 0) -> Target:
        """Step one attribute off a resolved target."""
        if _depth > 16:
            return UNKNOWN
        if target.kind == "module":
            mod = target.ref
            qual = f"{mod}:{attr}"
            if qual in self.functions:
                return Target("function", qual)
            if qual in self.classes:
                return Target("class", qual)
            if f"{mod}.{attr}" in self.modules:
                return Target("module", f"{mod}.{attr}")
            bindings = self._bindings.get(mod, {})
            if attr in bindings:
                return self.resolve_dotted(bindings[attr], _depth + 1)
            return Target("external", f"{mod}.{attr}")
        if target.kind == "class":
            fq = self.method_on(target.ref, attr)
            if fq is not None:
                return Target("function", fq)
            return UNKNOWN
        if target.kind == "external":
            return Target("external", f"{target.ref}.{attr}")
        return UNKNOWN

    def expr_target(self, module: str, expr: ast.expr) -> Target:
        """Resolve a Name/Attribute expression at module scope."""
        if isinstance(expr, ast.Name):
            return self.resolve_name(module, expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.expr_target(module, expr.value)
            if base.kind == "unknown":
                return UNKNOWN
            return self.resolve_attr(base, expr.attr)
        return UNKNOWN

    def annotation_class(self, module: str, annotation: ast.expr) -> Optional[str]:
        """The in-index class an annotation names, if exactly one.

        ``C``, ``"C"``, ``Optional[C]``, ``C | None`` and ``None | C``
        name ``C``; any other generic or union names no single class
        whose attributes and methods could be tracked.
        """
        node = annotation
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left, right = node.left, node.right
            if isinstance(left, ast.Constant) and left.value is None:
                node = right
            elif isinstance(right, ast.Constant) and right.value is None:
                node = left
            else:
                return None
        if isinstance(node, ast.Subscript):
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
        target = self.expr_target(module, node)
        return target.ref if target.kind == "class" else None

    def method_on(self, class_qual: str, name: str, _depth: int = 0) -> Optional[str]:
        """Look ``name`` up on a class and its resolvable bases."""
        if _depth > 16:
            return None
        info = self.classes.get(class_qual)
        if info is None:
            return None
        if name in info.methods:
            return info.methods[name]
        for base in info.node.bases:
            t = self.expr_target(info.module.name, base)
            if t.kind == "class":
                found = self.method_on(t.ref, name, _depth + 1)
                if found is not None:
                    return found
        return None

    def constructor_of(self, class_qual: str) -> Optional[FunctionInfo]:
        fq = self.method_on(class_qual, "__init__")
        return self.functions.get(fq) if fq is not None else None
