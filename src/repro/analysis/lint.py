"""The SIM rules: per-file determinism patterns.

The simulator promises bit-reproducible runs: integer-microsecond event
time, seeded stream-separated randomness, and scheduling decisions that
depend only on deterministically ordered data.  These rules enforce the
coding patterns that promise rests on, one module at a time (generic
tools cannot know that ``repro.sim.rng`` is the only legal randomness
source, or that ``engine.now`` must stay an ``int``).  They run as part
of :func:`repro.analysis.static.analyze`, on the tree
:func:`repro.analysis.program.load_modules` parsed; the FLOW rules
follow the same properties across calls, but deliberately leave the
local and module-level cases to these.

Rule catalogue
--------------
======== =============================================================
SIM001   Iteration over an unordered ``set``/``frozenset`` (or a
         ``.keys()`` view) in a *scheduling-decision module* -- any
         file under ``balance/``, ``sched/`` or ``core/``.  Iteration
         order of a set is arbitrary, so a victim/candidate scan over
         one makes migration decisions irreproducible.  Use
         ``sorted(...)`` or an explicitly ordered container.
SIM002   Use of the global :mod:`random` module (or ``numpy.random``)
         instead of the seeded, stream-separated
         :class:`repro.sim.rng.SimRng`.
SIM003   Wall-clock reads -- ``time.time()``, ``time.monotonic()``,
         ``datetime.now()`` and friends.  Simulation code must use
         ``engine.now`` exclusively.
SIM004   Float arithmetic on engine timestamps: true division applied
         to ``engine.now`` (or a bare ``now``), ``float(...now)``, or
         a float-valued delay passed to ``Engine.schedule`` /
         ``Engine.schedule_at``.  Engine time is integer microseconds.
SIM005   Mutable default argument (``def f(x=[])``): shared mutable
         state across calls is a classic source of run-order coupling.
SIM006   Unordered filesystem iteration -- ``os.listdir``,
         ``os.scandir``, ``glob.glob``/``iglob``, ``Path.iterdir``/
         ``glob``/``rglob`` -- in a *harness or analysis module*
         without an enclosing ``sorted(...)``.  Directory order is
         filesystem-dependent, so scenario discovery, result loading
         and trace analysis would differ between machines.
SIM007   O(n) aggregate recomputation in a *hot scheduling module*
         (``sched/`` or ``core/``): ``sum``/``min``/``max``/``any``/
         ``all`` over a task or core population (``rq``, ``.tasks``,
         ``.cores``, ``runnable_tasks``).  These run per dispatch or
         per balancer wake; the aggregate must be maintained
         incrementally at mutation time instead (the way the run
         queues maintain ``total_weight``/``max_vruntime`` and the
         system maintains the per-scope memory-intensity index).
======== =============================================================
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

from repro.analysis.program import SourceModule, parse_module, syntax_error
from repro.analysis.rules import DECISION_DIRS, Finding, is_suppressed

__all__ = ["lint_module", "lint_source"]

#: directories on the per-dispatch / per-wake hot path (SIM007 scope):
#: an O(n) recomputation there is fixed by maintaining the aggregate
HOT_AGG_DIRS = frozenset({"sched", "core"})

#: aggregator builtins whose population-wide use SIM007 flags
_AGGREGATORS = frozenset({"sum", "min", "max", "any", "all"})

#: names/attributes denoting a task or core population (SIM007): the
#: run queue, task snapshots, and full-core sweeps
_POPULATION_NAMES = frozenset({"rq", "tasks", "cores", "runnable_tasks"})

#: directories whose modules enumerate the filesystem (SIM006 scope):
#: the harness discovers scenarios/results on disk, the analysis layer
#: walks sources and traces -- both must see files in a fixed order.
FS_ORDER_DIRS = frozenset({"harness", "analysis", "store", "service", "serve"})

#: filesystem-enumeration callables with platform-dependent order
#: (SIM006); matched as ``os.listdir``-style attributes, ``.iterdir()``
#: -style methods and bare names bound by ``from os import listdir``.
_FS_ITER_FUNCS = frozenset(
    {"listdir", "scandir", "glob", "iglob", "iterdir", "rglob"}
)

#: wall-clock functions of the ``time`` module (SIM003)
_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)

#: wall-clock constructors on ``datetime``/``date`` objects (SIM003)
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: calls whose result keeps the argument's (arbitrary) iteration order
_ORDER_PRESERVING_CALLS = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})

#: int-producing wrappers that launder float arithmetic back to engine
#: time (SIM004 exempt when they enclose the flagged expression)
_INT_COERCIONS = frozenset({"int", "round", "ceil", "floor", "len"})


# ----------------------------------------------------------------------
# the visitor
# ----------------------------------------------------------------------
def _mentions_population(node: ast.expr) -> bool:
    """Does this expression reach into a task/core population?"""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and n.id in _POPULATION_NAMES:
            return True
        if isinstance(n, ast.Attribute) and n.attr in _POPULATION_NAMES:
            return True
    return False


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


class _SetTracker:
    """Best-effort inference of which names/attributes hold sets.

    Tracks straightforward evidence only: set literals/comprehensions,
    ``set(...)``/``frozenset(...)`` calls, and ``set``/``frozenset``/
    ``Set``/``FrozenSet``/``AbstractSet`` annotations -- on plain names
    and on ``self.x`` attributes.  No flow analysis: once a name has
    been seen holding a set anywhere in the file it is treated as one.
    """

    def __init__(self) -> None:
        self.set_names: set[str] = set()
        self.set_attrs: set[str] = set()

    # -- classification ------------------------------------------------
    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Name) and node.id in self.set_names:
            return True
        if isinstance(node, ast.Attribute) and node.attr in self.set_attrs:
            return True
        return False

    @staticmethod
    def _annotation_is_set(node: ast.expr) -> bool:
        # set[int], frozenset[int], Set[int], typing.AbstractSet[int], "set[int]"
        target = node
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute):
            name = target.attr
        elif isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Constant) and isinstance(target.value, str):
            name = target.value.split("[", 1)[0].strip()
        else:
            return False
        return name in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet")

    # -- evidence collection -------------------------------------------
    def note_assign(self, target: ast.expr, value: Optional[ast.expr]) -> None:
        if value is None or not self.is_set_expr(value):
            return
        if isinstance(target, ast.Name):
            self.set_names.add(target.id)
        elif isinstance(target, ast.Attribute):
            self.set_attrs.add(target.attr)

    def note_annotation(self, target: ast.expr, annotation: ast.expr) -> None:
        if not self._annotation_is_set(annotation):
            return
        if isinstance(target, ast.Name):
            self.set_names.add(target.id)
        elif isinstance(target, ast.Attribute):
            self.set_attrs.add(target.attr)


class _Visitor(ast.NodeVisitor):
    def __init__(self, module: SourceModule):
        self.module = module
        self.decision = module.in_dirs(DECISION_DIRS)
        self.fs_order = module.in_dirs(FS_ORDER_DIRS)
        self.hot = module.in_dirs(HOT_AGG_DIRS)
        self.findings: list[Finding] = []
        self.sets = _SetTracker()
        self._time_alias: set[str] = set()  # names bound to the time module
        self._dt_alias: set[str] = set()  # names bound to datetime/date classes
        self._random_alias: set[str] = set()  # names bound to the random module
        self._fs_alias: set[str] = set()  # names bound to os/glob-style fs funcs
        #: call nodes appearing as a direct argument of sorted(...) --
        #: their arbitrary order is laundered away (SIM006 exempt);
        #: populated when the enclosing sorted() call is visited, which
        #: precedes the visit of its children.
        self._sorted_args: set[int] = set()

    # -- helpers -------------------------------------------------------
    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=str(self.module.path),
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
                function=self.module.name,
            )
        )

    # -- evidence pre-pass ---------------------------------------------
    def collect_evidence(self, tree: ast.AST) -> None:
        """One pass collecting set-typed names before judging iteration."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    self.sets.note_assign(t, node.value)
            elif isinstance(node, ast.AnnAssign):
                self.sets.note_annotation(node.target, node.annotation)
                self.sets.note_assign(node.target, node.value)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                self.sets.note_annotation(ast.Name(id=node.arg), node.annotation)

    # -- imports (SIM002 / SIM003 aliases) ------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".", 1)[0]
            bound = alias.asname or root
            if root == "random":
                self._random_alias.add(bound)
                self._emit(
                    node,
                    "SIM002",
                    "import of the global `random` module; draw from "
                    "repro.sim.rng.SimRng streams instead",
                )
            elif root == "time":
                self._time_alias.add(bound)
            elif root == "datetime":
                self._dt_alias.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = (node.module or "").split(".", 1)[0]
        if mod == "random":
            self._emit(
                node,
                "SIM002",
                "import from the global `random` module; draw from "
                "repro.sim.rng.SimRng streams instead",
            )
        elif mod == "numpy" and any(a.name == "random" for a in node.names):
            self._emit(
                node,
                "SIM002",
                "numpy.random is unseeded global state; use repro.sim.rng",
            )
        elif mod == "time":
            for alias in node.names:
                if alias.name in _TIME_FUNCS:
                    self._emit(
                        node,
                        "SIM003",
                        f"wall-clock import time.{alias.name}; simulation code "
                        "must use engine.now",
                    )
        elif mod == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self._dt_alias.add(alias.asname or alias.name)
        if mod in ("os", "glob"):
            for alias in node.names:
                if alias.name in _FS_ITER_FUNCS:
                    self._fs_alias.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- calls (SIM002 / SIM003 / SIM004 / SIM006) ----------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "sorted":
            for arg in node.args:
                self._sorted_args.add(id(arg))
        self._check_fs_iteration(node)
        self._check_aggregate_sweep(node)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner, attr = func.value.id, func.attr
            if owner in self._random_alias or owner == "random":
                self._emit(node, "SIM002", f"call to global random.{attr}()")
            elif owner in self._time_alias and attr in _TIME_FUNCS:
                self._emit(
                    node, "SIM003", f"wall-clock call {owner}.{attr}(); use engine.now"
                )
            elif owner in self._dt_alias and attr in _DATETIME_FUNCS:
                self._emit(
                    node, "SIM003", f"wall-clock call {owner}.{attr}(); use engine.now"
                )
            elif attr == "random" and owner in ("np", "numpy"):
                self._emit(node, "SIM002", "numpy.random call; use repro.sim.rng")
        # float(<timestamp>)
        if isinstance(func, ast.Name) and func.id == "float" and node.args:
            if _mentions_timestamp(node.args[0]):
                self._emit(
                    node,
                    "SIM004",
                    "float() applied to an engine timestamp; engine time is "
                    "integer microseconds",
                )
        # schedule/schedule_at with float-ish delay
        if isinstance(func, ast.Attribute) and func.attr in ("schedule", "schedule_at"):
            delay = self._schedule_time_arg(node)
            if delay is not None and _floatish(delay):
                self._emit(
                    node,
                    "SIM004",
                    f"float-valued time passed to {func.attr}(); engine time is "
                    "integer microseconds (wrap in int()/math.ceil())",
                )
        self.generic_visit(node)

    def _check_fs_iteration(self, node: ast.Call) -> None:
        """SIM006: unsorted filesystem enumeration in harness/analysis."""
        if not self.fs_order or id(node) in self._sorted_args:
            return
        func = node.func
        if isinstance(func, ast.Name):
            if func.id not in self._fs_alias:
                return
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr in _FS_ITER_FUNCS:
            name = func.attr
        else:
            return
        self._emit(
            node,
            "SIM006",
            f"{name}() yields entries in filesystem-dependent order; wrap "
            "the call in sorted(...) so discovery is reproducible",
        )

    def _check_aggregate_sweep(self, node: ast.Call) -> None:
        """SIM007: population-wide aggregation in a hot scheduling module.

        Flags ``sum``/``min``/``max``/``any``/``all`` whose argument
        is a comprehension iterating a task/core population, or which
        consume such a population directly (``max(cores, key=...)``).
        Two-or-more positional scalars (``min(a, b)``) are exempt --
        that is scalar arithmetic, not a sweep.
        """
        if not self.hot:
            return
        func = node.func
        if not (isinstance(func, ast.Name) and func.id in _AGGREGATORS):
            return
        if not node.args:
            return
        arg = node.args[0]
        hit = False
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            hit = any(_mentions_population(gen.iter) for gen in arg.generators)
        elif len(node.args) == 1:
            hit = _mentions_population(arg)
        if hit:
            self._emit(
                node,
                "SIM007",
                f"{func.id}() recomputes an aggregate over a task/core "
                "population on the hot path; maintain it incrementally at "
                "mutation time (as the run queues do for total_weight/"
                "max_vruntime)",
            )

    @staticmethod
    def _schedule_time_arg(node: ast.Call) -> Optional[ast.expr]:
        for kw in node.keywords:
            if kw.arg in ("delay", "time"):
                return kw.value
        return node.args[0] if node.args else None

    # -- division on timestamps (SIM004) --------------------------------
    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Div):
            for side in (node.left, node.right):
                if _is_timestamp_expr(side):
                    self._emit(
                        node,
                        "SIM004",
                        "true division on an engine timestamp produces a float; "
                        "use // for integer time",
                    )
                    break
        self.generic_visit(node)

    # -- iteration (SIM001) ---------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension_iters(self, node) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter)
        self.generic_visit(node)

    visit_ListComp = visit_comprehension_iters
    visit_SetComp = visit_comprehension_iters
    visit_DictComp = visit_comprehension_iters
    visit_GeneratorExp = visit_comprehension_iters

    def _check_iteration(self, it: ast.expr) -> None:
        if not self.decision:
            return
        if self._is_unordered_iterable(it):
            self._emit(
                it,
                "SIM001",
                "iteration over an unordered set/dict view in a scheduling-"
                "decision module; wrap in sorted(...) for a reproducible order",
            )

    def _is_unordered_iterable(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name == "keys" and isinstance(node.func, ast.Attribute):
                return True
            if name in _ORDER_PRESERVING_CALLS and node.args:
                return self._is_unordered_iterable(node.args[0])
            if name in ("set", "frozenset"):
                return True
            return False
        return self.sets.is_set_expr(node)

    # -- mutable defaults (SIM005) --------------------------------------
    def _check_defaults(self, args: ast.arguments) -> None:
        for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            ):
                self._emit(
                    default,
                    "SIM005",
                    "mutable default argument; use None and create inside the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node.args)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node.args)
        self.generic_visit(node)


def _is_timestamp_expr(node: ast.expr) -> bool:
    """Does this expression *denote* an engine timestamp?

    Conservative: ``<anything>.now`` attribute reads (``engine.now``,
    ``self.engine.now``) and the bare conventional name ``now``.
    """
    if isinstance(node, ast.Attribute) and node.attr == "now":
        return True
    if isinstance(node, ast.Name) and node.id == "now":
        return True
    return False


def _mentions_timestamp(node: ast.expr) -> bool:
    return any(_is_timestamp_expr(n) for n in ast.walk(node))


def _floatish(node: ast.expr) -> bool:
    """Could this expression be a float?  (For schedule() delays.)

    Flags float literals and true division anywhere inside, unless an
    enclosing int-coercion call (``int``, ``round``, ``math.ceil``...)
    launders the result back to an integer.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in _INT_COERCIONS:
            return False
        return any(_floatish(a) for a in node.args) or any(
            _floatish(kw.value) for kw in node.keywords
        )
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _floatish(node.left) or _floatish(node.right)
    if isinstance(node, ast.UnaryOp):
        return _floatish(node.operand)
    if isinstance(node, (ast.IfExp,)):
        return _floatish(node.body) or _floatish(node.orelse)
    return False


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def lint_module(module: SourceModule) -> list[Finding]:
    """Every SIM finding in one parsed module, before suppressions."""
    visitor = _Visitor(module)
    visitor.collect_evidence(module.tree)
    visitor.visit(module.tree)
    return visitor.findings


def lint_source(source: str, path: str | Path) -> list[Finding]:
    """The SIM findings for one module's source text, suppressions applied.

    ``path`` sets the rule scopes (``balance/fake.py`` is a decision
    module) and need not exist.
    """
    p = Path(path)
    try:
        module = parse_module(source, p)
    except SyntaxError as exc:
        return [syntax_error(p, exc)]
    out = [f for f in lint_module(module) if not is_suppressed(f, module)]
    out.sort(key=lambda f: (f.line, f.col, f.rule))
    return out
