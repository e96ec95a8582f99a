"""The FLOW rules: determinism taint across calls and modules.

The SIM rules judge one module at a time; they cannot see
``t = engine.now; helper(t)`` when ``helper`` does the division two
modules away.  These rules follow the same properties through the call
graph of :class:`repro.analysis.program.ProgramIndex` with an
interprocedural taint fixpoint.  They deliberately skip what the SIM
rules already flag on one line (a set iterated in the function that
built it, ``engine.now / 2`` written out) and never interpret
module-level code, so neither family subsumes the other.

======== =============================================================
FLOW001  Float contamination reaching engine timestamps through
         aliases, call chains and returns: a value derived from
         ``engine.now`` is true-divided or ``float()``-ed in an
         engine-time module -- possibly inside a helper that received
         it as a parameter -- or a float-valued expression produced by
         a callee flows into an ``Engine.schedule``/``schedule_at``
         time argument.
FLOW002  Global or unseeded randomness flowing into a scheduling
         decision via intermediaries: a function anywhere draws from
         the global :mod:`random` module (or ``numpy.random``, or an
         unseeded ``random.Random()``) and the value reaches code in
         ``balance/``, ``sched/`` or ``core/`` through calls or
         returns.
FLOW003  An unordered ``set``/``frozenset``/``.keys()`` value escapes
         the function that built it and is iterated in a
         scheduling-decision module -- either a decision-module caller
         iterates a set-returning callee's result, or a set is passed
         into a decision-module function that iterates its parameter.
FLOW004  Module-level mutable state written from a hot scheduling or
         harness-worker code path: process-global containers and
         iterators mutated by functions reachable from ``sched/``,
         ``core/``, ``balance/``, ``sim/`` or the worker entry modules
         break fork-safety for ``repeat_run``/``map_specs workers=N``
         and the serving daemon.
FLOW005  A lambda, closure or local function flows into
         :mod:`repro.store` spec-key construction (``spec_digest``,
         ``canonical_value``, ``function_ref``, ...), which raises
         ``UnstorableSpecError`` at runtime -- this rule surfaces it
         statically, including through intermediaries.
======== =============================================================

The analysis models five taint kinds:

* ``timestamp`` -- values derived from ``engine.now``.  Timestamp
  algebra matters: ``ts - ts`` is a *duration* (the paper's speed
  metric divides durations by design, so subtraction clears the
  taint), while ``ts + k``/``ts // k``/``min(ts, ts)`` stay
  timestamps.
* ``random`` -- values drawn from the global :mod:`random` module,
  ``numpy.random`` or an unseeded ``random.Random()``.  Draws from a
  *seeded* ``random.Random(seed)`` (the :class:`~repro.sim.rng.SimRng`
  discipline) are clean.
* ``unordered`` -- ``set``/``frozenset`` values and ``.keys()`` views,
  whose iteration order is arbitrary.
* ``localfn`` -- lambdas and functions defined inside a function,
  which have no stable identity for store keys.
* ``float`` -- float-valued expressions (division results, float
  returns), which must not reach engine schedule times.

Parameters are seeded with symbolic ``param:<name>`` tokens, so one
interpretation pass yields both the function's *transfer function*
(which parameters flow to the return value, which reach a sink) and
its *intrinsic* effects (returns a set, draws randomness, mutates a
module global).  Summaries are recomputed round-robin until no
summary or class-attribute taint changes -- the standard bottom-up
fixpoint, which handles recursion and mutual calls.

Findings are only emitted on a final reporting pass over the converged
summaries, so every message reflects the fixpoint, not a half-built
intermediate state.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.program import (
    FunctionInfo,
    GlobalVar,
    GlobalWrite,
    ProgramIndex,
    Target,
)
from repro.analysis.rules import DECISION_DIRS, Finding

__all__ = [
    "TS",
    "RAND",
    "UNORD",
    "LOCALFN",
    "FLOATV",
    "Origin",
    "Summary",
    "FlowAnalysis",
    "TIME_DIRS",
    "WORKER_MODULES",
]

# taint kind tokens
TS = "timestamp"
RAND = "random"
UNORD = "unordered"
LOCALFN = "localfn"
FLOATV = "float"
_PARAM = "param:"

#: engine-time directories (FLOW001 sink scope): modules where a value
#: derived from engine.now must stay integer microseconds
TIME_DIRS = frozenset({"sim", "sched", "core", "balance"})

#: hot directories + worker entry modules (FLOW004 reachability roots):
#: functions here run per event/dispatch or inside pool worker processes
HOT_DIRS = frozenset({"sched", "core", "balance", "sim"})
WORKER_MODULES = frozenset(
    {
        "repro.harness.parallel",
        "repro.harness.experiment",
        "repro.service.jobs",
        "repro.serve.workers",
    }
)

#: container methods that mutate the receiver (FLOW004)
_MUTATORS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "extend",
        "remove",
        "discard",
        "insert",
        "appendleft",
        "popleft",
    }
)

#: store spec-key constructors (FLOW005 sinks), matched by dotted name so
#: they work whether or not repro.store is inside the analyzed tree
_SPEC_SINK_NAMES = frozenset(
    {
        "spec_key",
        "spec_digest",
        "digest_of",
        "canonical_value",
        "function_ref",
    }
)

_ORDER_PRESERVING = frozenset({"list", "tuple", "iter", "enumerate", "reversed"})
_ORDER_INSENSITIVE = frozenset({"min", "max", "sum", "any", "all", "abs"})
_INT_COERCIONS = frozenset({"int", "round"})
_PLAIN_RESULT = frozenset({"len", "bool", "str", "repr", "format", "id", "hash"})


@dataclass(frozen=True)
class Origin:
    """Where a taint token came from, and whether it crossed a call."""

    desc: str
    inter: bool = False


#: a taint set: token -> first-seen origin
Taints = dict  # dict[str, Origin]


def merge(*many: Taints) -> Taints:
    out: Taints = {}
    for t in many:
        for token, origin in t.items():
            out.setdefault(token, origin)
    return out


def minus(t: Taints, *tokens: str) -> Taints:
    return {k: v for k, v in t.items() if k not in tokens}


def _params_in(t: Taints) -> list[str]:
    return [k[len(_PARAM) :] for k in t if k.startswith(_PARAM)]


def _via(origin: Origin, callee: str) -> Origin:
    desc = origin.desc
    if len(desc) < 120:
        desc = f"{desc}, via {callee}()"
    return Origin(desc, inter=True)


@dataclass
class Summary:
    """The converged transfer function of one analyzed function."""

    returns: Taints = field(default_factory=dict)
    float_div_params: frozenset = frozenset()
    sched_time_params: frozenset = frozenset()
    iter_params: frozenset = frozenset()
    spec_sink_params: frozenset = frozenset()
    calls: frozenset = frozenset()
    global_writes: tuple = ()

    def signature(self) -> tuple:
        return (
            frozenset(self.returns),
            self.float_div_params,
            self.sched_time_params,
            self.iter_params,
            self.spec_sink_params,
            self.calls,
            self.global_writes,
        )


EMPTY_SUMMARY = Summary()


def _mentions_now(node: ast.expr) -> bool:
    """Syntactic SIM004 territory: the expression names ``now`` itself."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and n.attr == "now":
            return True
        if isinstance(n, ast.Name) and n.id == "now":
            return True
    return False


class FlowAnalysis:
    """Drives the summary fixpoint and the final reporting pass."""

    def __init__(self, program: ProgramIndex, max_rounds: int = 20):
        self.program = program
        self.max_rounds = max_rounds
        self.summaries: dict[str, Summary] = {}
        #: class qual -> attribute -> taints (monotone across the fixpoint)
        self.attr_taints: dict[str, dict[str, Taints]] = {}
        self.findings: list[Finding] = []
        self._seen: set = set()
        self._attrs_changed = False
        self.rounds = 0

    # -- fixpoint -------------------------------------------------------
    def solve(self) -> None:
        quals = sorted(self.program.functions)
        for _ in range(self.max_rounds):
            self.rounds += 1
            changed = False
            self._attrs_changed = False
            for qual in quals:
                fn = self.program.functions[qual]
                summary = _Interp(self, fn, emit=False).run()
                old = self.summaries.get(qual)
                if old is None or old.signature() != summary.signature():
                    changed = True
                self.summaries[qual] = summary
            if not changed and not self._attrs_changed:
                break

    def report(self) -> list[Finding]:
        """The final emitting pass plus the FLOW004 reachability rule."""
        for qual in sorted(self.program.functions):
            _Interp(self, self.program.functions[qual], emit=True).run()
        self._report_global_writes()
        return self.findings

    # -- shared state ---------------------------------------------------
    def summary_of(self, qual: str) -> Summary:
        return self.summaries.get(qual, EMPTY_SUMMARY)

    def attr_read(self, class_qual: str, attr: str) -> Taints:
        return self.attr_taints.get(class_qual, {}).get(attr, {})

    def attr_write(self, class_qual: str, attr: str, taints: Taints) -> None:
        table = self.attr_taints.setdefault(class_qual, {})
        current = table.setdefault(attr, {})
        for token, origin in taints.items():
            if token not in current:
                current[token] = origin
                self._attrs_changed = True

    def emit(
        self,
        fn: FunctionInfo,
        node: ast.AST,
        rule: str,
        message: str,
    ) -> None:
        path = str(fn.module.path)
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        key = (path, line, col, rule)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(
                path=path, line=line, col=col, rule=rule,
                message=message, function=fn.qual,
            )
        )

    # -- FLOW004: reachability from hot/worker entries ------------------
    def _hot_entry(self, fn: FunctionInfo) -> bool:
        return fn.module.in_dirs(HOT_DIRS) or fn.module.name in WORKER_MODULES

    def _report_global_writes(self) -> None:
        # BFS over the converged call graph from every hot/worker function
        witness: dict[str, str] = {}
        frontier: list[str] = []
        for qual in sorted(self.program.functions):
            if self._hot_entry(self.program.functions[qual]):
                witness[qual] = qual
                frontier.append(qual)
        while frontier:
            next_frontier: list[str] = []
            for qual in frontier:
                for callee in sorted(self.summary_of(qual).calls):
                    if callee not in witness and callee in self.program.functions:
                        witness[callee] = witness[qual]
                        next_frontier.append(callee)
            frontier = next_frontier

        for qual in sorted(self.program.functions):
            if qual not in witness:
                continue
            fn = self.program.functions[qual]
            for write in self.summary_of(qual).global_writes:
                entry = witness[qual]
                how_reached = (
                    "runs on the hot scheduling/worker path"
                    if entry == qual
                    else f"is reachable from hot/worker entry {entry}"
                )
                self.emit(
                    fn,
                    _FakeNode(write.lineno, write.col),
                    "FLOW004",
                    f"{write.how} module-global "
                    f"`{write.var.module}.{write.var.name}` (bound at "
                    f"{write.var.module}:{write.var.lineno}) but {fn.name}() "
                    f"{how_reached}; process-global mutable state breaks "
                    "fork-safety for repeat_run/map_specs workers and the "
                    "serving daemon -- make it per-System state",
                )


@dataclass(frozen=True)
class _FakeNode:
    lineno: int
    col_offset: int

    def __post_init__(self) -> None:
        # emit() reads col_offset + 1; GlobalWrite stores 1-based already
        object.__setattr__(self, "col_offset", self.col_offset - 1)


class _Interp:
    """One abstract interpretation of a function body."""

    def __init__(self, analysis: FlowAnalysis, fn: FunctionInfo, emit: bool):
        self.an = analysis
        self.program = analysis.program
        self.fn = fn
        self.module = fn.module
        self.emitting = emit
        self.decision = fn.module.in_dirs(DECISION_DIRS)
        self.time_scope = fn.module.in_dirs(TIME_DIRS)

        self.env: dict[str, Taints] = {}
        self.instance: dict[str, str] = {}  # local name -> class qual
        self.assigned: set[str] = set()  # locally (re)bound names
        self.global_decls: set[str] = set()
        self.ret: Taints = {}
        self.float_div_params: set[str] = set()
        self.sched_time_params: set[str] = set()
        self.iter_params: set[str] = set()
        self.spec_sink_params: set[str] = set()
        self.calls: set[str] = set()
        self.global_writes: list[GlobalWrite] = []
        self._last_call_class: Optional[str] = None

        for p in fn.params:
            self.env[p] = {f"{_PARAM}{p}": Origin(f"parameter {p!r}")}
            self.assigned.add(p)
        self_name = fn.self_name
        if self_name is not None and fn.class_qual is not None:
            self.instance[self_name] = fn.class_qual
            self.env.setdefault(self_name, {})
            self.assigned.add(self_name)
            # parameter annotations naming in-index classes enable method
            # resolution on arguments too
        for arg in fn.node.args.posonlyargs + fn.node.args.args + fn.node.args.kwonlyargs:
            if arg.annotation is not None and arg.arg in self.env:
                t = self.program.annotation_class(self.module.name, arg.annotation)
                if t is not None:
                    self.instance[arg.arg] = t

    # -- driver ---------------------------------------------------------
    def run(self) -> Summary:
        # two passes so loop-carried and forward flows stabilize locally;
        # interprocedural effects stabilize in the outer fixpoint
        for _ in range(2):
            for stmt in self.fn.node.body:
                self.exec(stmt)
        return Summary(
            returns=dict(self.ret),
            float_div_params=frozenset(self.float_div_params),
            sched_time_params=frozenset(self.sched_time_params),
            iter_params=frozenset(self.iter_params),
            spec_sink_params=frozenset(self.spec_sink_params),
            calls=frozenset(self.calls),
            global_writes=tuple(dict.fromkeys(self.global_writes)),
        )

    # -- statements -----------------------------------------------------
    def exec(self, node: ast.stmt) -> None:
        method = getattr(self, f"exec_{type(node).__name__}", None)
        if method is not None:
            method(node)
            return
        # default: evaluate child expressions, execute child statements
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self.exec(child)
            elif isinstance(child, ast.expr):
                self.eval(child)

    def exec_block(self, stmts: list) -> None:
        for s in stmts:
            self.exec(s)

    def exec_Assign(self, node: ast.Assign) -> None:
        taints = self.eval(node.value)
        cls = self._last_call_class
        for target in node.targets:
            self.assign_to(target, taints, cls)

    def exec_AnnAssign(self, node: ast.AnnAssign) -> None:
        taints = self.eval(node.value) if node.value is not None else {}
        cls = self._last_call_class if node.value is not None else None
        if cls is None:
            cls = self.program.annotation_class(self.module.name, node.annotation)
        self.assign_to(node.target, taints, cls)

    def exec_AugAssign(self, node: ast.AugAssign) -> None:
        current = self.eval(node.target)
        value = self.eval(node.value)
        if isinstance(node.op, ast.Div):
            self._check_division(node, merge(current, value))
        self.assign_to(node.target, merge(current, value))

    def exec_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self.ret = merge(self.ret, self.eval(node.value))

    def exec_Global(self, node: ast.Global) -> None:
        self.global_decls.update(node.names)

    def exec_For(self, node: ast.For) -> None:
        self._iterate(node.iter)
        self.assign_to(node.target, minus(self.eval(node.iter), UNORD))
        self.exec_block(node.body)
        self.exec_block(node.orelse)

    exec_AsyncFor = exec_For

    def exec_While(self, node: ast.While) -> None:
        self.eval(node.test)
        self.exec_block(node.body)
        self.exec_block(node.orelse)

    def exec_If(self, node: ast.If) -> None:
        self.eval(node.test)
        self.exec_block(node.body)
        self.exec_block(node.orelse)

    def exec_With(self, node: ast.With) -> None:
        for item in node.items:
            t = self.eval(item.context_expr)
            if item.optional_vars is not None:
                self.assign_to(item.optional_vars, t)
        self.exec_block(node.body)

    exec_AsyncWith = exec_With

    def exec_Try(self, node: ast.Try) -> None:
        self.exec_block(node.body)
        for handler in node.handlers:
            self.exec_block(handler.body)
        self.exec_block(node.orelse)
        self.exec_block(node.finalbody)

    def exec_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                var = self._global_for(target.value)
                if var is not None:
                    self._record_write(target, var, "deletes an item of")

    def exec_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._nested_function(node)

    def exec_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._nested_function(node)

    def _nested_function(self, node) -> None:
        self.env[node.name] = {
            LOCALFN: Origin(f"local function {node.name!r} defined at line {node.lineno}")
        }
        self.assigned.add(node.name)
        # analyze the nested body for sinks with the enclosing env as the
        # closure environment; its calls and global writes count as ours
        nested_info = FunctionInfo(
            qual=f"{self.fn.qual}.<locals>.{node.name}",
            module=self.module,
            node=node,
            class_qual=None,
        )
        sub = _Interp(self.an, nested_info, emit=self.emitting)
        for name, taints in self.env.items():
            sub.env.setdefault(name, dict(taints))
        sub.instance.update(
            {k: v for k, v in self.instance.items() if k not in sub.assigned}
        )
        summary = sub.run()
        self.calls.update(summary.calls)
        self.global_writes.extend(summary.global_writes)

    def exec_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # local classes are out of scope

    def exec_Expr(self, node: ast.Expr) -> None:
        self.eval(node.value)

    # -- assignment targets ---------------------------------------------
    def assign_to(
        self, target: ast.expr, taints: Taints, cls: Optional[str] = None
    ) -> None:
        if isinstance(target, ast.Name):
            name = target.id
            if name in self.global_decls:
                var = self.program.mutable_global(self.module.name, name)
                if var is not None:
                    self._record_write(target, var, "rebinds")
                else:
                    # rebinding *any* declared global is module-state write
                    anon = GlobalVar(self.module.name, name, target.lineno, "container")
                    self._record_write(target, anon, "rebinds")
                return
            self.env[name] = dict(taints)
            self.assigned.add(name)
            if cls is not None:
                self.instance[name] = cls
            elif name in self.instance:
                del self.instance[name]
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and base.id in self.instance:
                self.an.attr_write(self.instance[base.id], target.attr, taints)
            else:
                var = self._module_attr_global(target)
                if var is not None:
                    self._record_write(target, var, "rebinds")
        elif isinstance(target, ast.Subscript):
            base = target.value
            var = self._global_for(base)
            if var is not None:
                self._record_write(target, var, "assigns an item of")
            if isinstance(base, ast.Name) and base.id in self.env:
                self.env[base.id] = merge(self.env[base.id], taints)
            elif isinstance(base, ast.Attribute):
                inner = base.value
                if isinstance(inner, ast.Name) and inner.id in self.instance:
                    self.an.attr_write(self.instance[inner.id], base.attr, taints)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign_to(elt, taints)
        elif isinstance(target, ast.Starred):
            self.assign_to(target.value, taints)

    # -- FLOW004 helpers -------------------------------------------------
    def _global_for(self, expr: ast.expr) -> Optional[GlobalVar]:
        """The module-level mutable global behind an expression, if any."""
        if isinstance(expr, ast.Name):
            if expr.id in self.assigned and expr.id not in self.global_decls:
                return None  # locally shadowed
            return self.program.mutable_global(self.module.name, expr.id)
        if isinstance(expr, ast.Attribute):
            return self._module_attr_global(expr)
        return None

    def _module_attr_global(self, expr: ast.Attribute) -> Optional[GlobalVar]:
        """``othermod.GLOBAL`` reached through an imported module alias."""
        base = self.program.expr_target(self.module.name, expr.value) if isinstance(
            expr.value, (ast.Name, ast.Attribute)
        ) else None
        if base is not None and base.kind == "module":
            return self.program.mutable_global(base.ref, expr.attr)
        return None

    def _record_write(self, node: ast.AST, var: GlobalVar, how: str) -> None:
        self.global_writes.append(
            GlobalWrite(
                var=var,
                lineno=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                how=how,
            )
        )

    # -- iteration (FLOW003 sink) ----------------------------------------
    def _iterate(self, iter_expr: ast.expr) -> None:
        taints = self.eval(iter_expr)
        for p in _params_in(taints):
            self.iter_params.add(p)
        origin = taints.get(UNORD)
        if (
            origin is not None
            and origin.inter
            and self.decision
            and self.emitting
        ):
            self.an.emit(
                self.fn,
                iter_expr,
                "FLOW003",
                f"iteration over an unordered set that escaped its defining "
                f"function ({origin.desc}); scheduling decisions must scan "
                "deterministically ordered data -- sort at the boundary",
            )

    # -- expressions ------------------------------------------------------
    def eval(self, node: Optional[ast.expr]) -> Taints:
        if node is None:
            return {}
        method = getattr(self, f"eval_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # default: union of child expression taints
        out: Taints = {}
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out = merge(out, self.eval(child))
        return out

    def eval_Name(self, node: ast.Name) -> Taints:
        return dict(self.env.get(node.id, {}))

    def eval_Constant(self, node: ast.Constant) -> Taints:
        if isinstance(node.value, float):
            return {FLOATV: Origin(f"float literal {node.value!r}")}
        return {}

    def eval_Attribute(self, node: ast.Attribute) -> Taints:
        if node.attr == "now":
            return {TS: Origin(f"engine.now read at line {node.lineno}")}
        base = node.value
        if isinstance(base, ast.Name) and base.id in self.instance:
            stored = self.an.attr_read(self.instance[base.id], node.attr)
            return merge(dict(stored), minus(self.env.get(base.id, {}), UNORD))
        return minus(self.eval(base), UNORD)

    def eval_Lambda(self, node: ast.Lambda) -> Taints:
        self.eval(node.body)  # sinks inside the body still count
        return {LOCALFN: Origin(f"lambda defined at line {node.lineno}")}

    def eval_BinOp(self, node: ast.BinOp) -> Taints:
        left, right = self.eval(node.left), self.eval(node.right)
        both = merge(left, right)
        if isinstance(node.op, ast.Div):
            self._check_division(node, both)
            for p in _params_in(both):
                self.float_div_params.add(p)
            return merge(minus(both, TS), {FLOATV: Origin("true-division result")})
        if isinstance(node.op, (ast.Sub, ast.Mod)):
            if TS in both:
                # timestamp - timestamp = duration, the sanctioned form.
                # A non-constant other operand is treated as a paired
                # timestamp too (``now - prev`` where prev is a stored
                # snapshot or parameter); only constant offsets keep the
                # taint, since ``now - 5`` is still a timestamp.
                ts_minus_const = (
                    isinstance(node.op, ast.Sub)
                    and (
                        (TS in left and TS not in right and isinstance(node.right, ast.Constant))
                        or (TS in right and TS not in left and isinstance(node.left, ast.Constant))
                    )
                )
                if not ts_minus_const:
                    return minus(both, TS)
            return both
        return both

    def _check_division(self, node: ast.AST, taints: Taints) -> None:
        origin = taints.get(TS)
        if origin is None or not self.time_scope or not self.emitting:
            return
        if isinstance(node, ast.expr) and _mentions_now(node):
            return  # SIM004 already flags the syntactic form
        self.an.emit(
            self.fn,
            node,
            "FLOW001",
            f"true division on a value derived from engine.now "
            f"({origin.desc}); engine time is integer microseconds -- "
            "use // or subtract timestamps into a duration first",
        )

    def eval_UnaryOp(self, node: ast.UnaryOp) -> Taints:
        return self.eval(node.operand)

    def eval_BoolOp(self, node: ast.BoolOp) -> Taints:
        return merge(*(self.eval(v) for v in node.values))

    def eval_Compare(self, node: ast.Compare) -> Taints:
        self.eval(node.left)
        for c in node.comparators:
            self.eval(c)
        return {}

    def eval_IfExp(self, node: ast.IfExp) -> Taints:
        self.eval(node.test)
        return merge(self.eval(node.body), self.eval(node.orelse))

    def eval_Subscript(self, node: ast.Subscript) -> Taints:
        self.eval(node.slice)
        return minus(self.eval(node.value), UNORD)

    def eval_Await(self, node: ast.Await) -> Taints:
        return self.eval(node.value)

    def eval_Yield(self, node: ast.Yield) -> Taints:
        if node.value is not None:
            self.ret = merge(self.ret, self.eval(node.value))
        return {}

    def eval_YieldFrom(self, node: ast.YieldFrom) -> Taints:
        self.ret = merge(self.ret, self.eval(node.value))
        return {}

    def eval_Tuple(self, node: ast.Tuple) -> Taints:
        return merge(*(self.eval(e) for e in node.elts)) if node.elts else {}

    eval_List = eval_Tuple

    def eval_Set(self, node: ast.Set) -> Taints:
        inner = merge(*(self.eval(e) for e in node.elts)) if node.elts else {}
        return merge(inner, {UNORD: Origin(f"set literal at line {node.lineno}")})

    def eval_Dict(self, node: ast.Dict) -> Taints:
        parts = [self.eval(k) for k in node.keys if k is not None]
        parts += [self.eval(v) for v in node.values]
        return merge(*parts) if parts else {}

    def _eval_comprehension(self, node, elts: list) -> Taints:
        out: Taints = {}
        for gen in node.generators:
            self._iterate(gen.iter)
            t_iter = self.eval(gen.iter)
            self.assign_to(gen.target, minus(t_iter, UNORD))
            for cond in gen.ifs:
                self.eval(cond)
            out = merge(out, {UNORD: t_iter[UNORD]} if UNORD in t_iter else {})
        for e in elts:
            out = merge(out, self.eval(e))
        return out

    def eval_ListComp(self, node: ast.ListComp) -> Taints:
        return self._eval_comprehension(node, [node.elt])

    def eval_GeneratorExp(self, node: ast.GeneratorExp) -> Taints:
        return self._eval_comprehension(node, [node.elt])

    def eval_SetComp(self, node: ast.SetComp) -> Taints:
        inner = self._eval_comprehension(node, [node.elt])
        return merge(
            inner, {UNORD: Origin(f"set comprehension at line {node.lineno}")}
        )

    def eval_DictComp(self, node: ast.DictComp) -> Taints:
        return self._eval_comprehension(node, [node.key, node.value])

    def eval_JoinedStr(self, node: ast.JoinedStr) -> Taints:
        for v in node.values:
            self.eval(v)
        return {}

    def eval_Starred(self, node: ast.Starred) -> Taints:
        return self.eval(node.value)

    # -- calls -------------------------------------------------------------
    def eval_Call(self, node: ast.Call) -> Taints:
        self._last_call_class = None
        pos = [self.eval(a.value if isinstance(a, ast.Starred) else a) for a in node.args]
        kws = {
            kw.arg: self.eval(kw.value) for kw in node.keywords if kw.arg is not None
        }
        anon_kw = [self.eval(kw.value) for kw in node.keywords if kw.arg is None]
        all_args = pos + list(kws.values()) + anon_kw
        func = node.func

        builtin = self._eval_builtin(node, func, pos, all_args)
        if builtin is not None:
            return builtin

        if isinstance(func, ast.Attribute):
            special = self._eval_attr_call(node, func, pos, kws, all_args)
            if special is not None:
                return special

        callee, target = self._resolve_callee(func)
        if target.kind in ("function", "class", "external"):
            self._check_spec_sink(node, target, pos, kws, all_args)
        if target.kind == "external" and self._is_random_source(target, node):
            return {
                RAND: Origin(f"global randomness from {target.dotted} at line {node.lineno}")
            }

        if callee is not None:
            return self._apply_summary(node, callee, pos, kws)

        # unknown callee: pass taints through conservatively, except the
        # kinds that would smear.  Timestamps survive the *receiver* of a
        # method call (`self._last.get(tid)` returns what the dict holds)
        # but not the arguments -- `now` is handed to every program hook
        # without the result being a timestamp (resolved calls keep
        # precise summaries either way).
        base_taints: Taints = {}
        if isinstance(func, ast.Attribute):
            base_taints = self.eval(func.value)
        arg_taints = minus(merge(*all_args) if all_args else {}, TS)
        return minus(merge(base_taints, arg_taints), UNORD, LOCALFN)

    def _eval_builtin(
        self,
        node: ast.Call,
        func: ast.expr,
        pos: list,
        all_args: list,
    ) -> Optional[Taints]:
        if not isinstance(func, ast.Name) or func.id in self.assigned:
            return None
        name = func.id
        if name == "sorted":
            return minus(merge(*all_args) if all_args else {}, UNORD)
        if name in ("set", "frozenset"):
            inner = merge(*all_args) if all_args else {}
            return merge(
                inner, {UNORD: Origin(f"{name}(...) constructed at line {node.lineno}")}
            )
        if name in _ORDER_PRESERVING:
            return merge(*all_args) if all_args else {}
        if name in _ORDER_INSENSITIVE:
            return minus(merge(*all_args) if all_args else {}, UNORD)
        if name in _INT_COERCIONS:
            return minus(merge(*all_args) if all_args else {}, FLOATV)
        if name in _PLAIN_RESULT:
            for t in all_args:
                pass  # arguments were already evaluated for sinks
            return {}
        if name == "float":
            t = merge(*all_args) if all_args else {}
            origin = t.get(TS)
            if (
                origin is not None
                and self.time_scope
                and self.emitting
                and node.args
                and not _mentions_now(node.args[0])
            ):
                self.an.emit(
                    self.fn,
                    node,
                    "FLOW001",
                    f"float() applied to a value derived from engine.now "
                    f"({origin.desc}); engine time is integer microseconds",
                )
            for p in _params_in(t):
                self.float_div_params.add(p)
            return merge(t, {FLOATV: Origin("float() conversion")})
        if name == "next" and len(node.args) == 1 and isinstance(node.args[0], ast.Name):
            var = self._global_for(node.args[0])
            if var is not None and var.kind == "iterator":
                self._record_write(node, var, "advances")
            return {}
        return None

    def _eval_attr_call(
        self,
        node: ast.Call,
        func: ast.Attribute,
        pos: list,
        kws: dict,
        all_args: list,
    ) -> Optional[Taints]:
        attr = func.attr
        if attr == "keys" and not node.args:
            base = self.eval(func.value)
            return merge(
                minus(base, UNORD),
                {UNORD: Origin(f".keys() view at line {node.lineno}")},
            )
        if attr in ("schedule", "schedule_at"):
            self.eval(func.value)
            time_arg: Optional[Taints] = None
            for kw_name in ("delay", "time"):
                if kw_name in kws:
                    time_arg = kws[kw_name]
                    break
            if time_arg is None and pos:
                time_arg = pos[0]
            if time_arg is not None:
                origin = time_arg.get(FLOATV)
                if origin is not None and origin.inter and self.emitting:
                    self.an.emit(
                        self.fn,
                        node,
                        "FLOW001",
                        f"float-valued time reaches {attr}() across a call "
                        f"boundary ({origin.desc}); engine time is integer "
                        "microseconds -- coerce with int()/math.ceil() at "
                        "the producer",
                    )
                for p in _params_in(time_arg):
                    self.sched_time_params.add(p)
            return None  # fall through for callee resolution
        if attr in ("ceil", "floor", "trunc"):
            base = self.program.expr_target(self.module.name, func.value) if isinstance(
                func.value, (ast.Name, ast.Attribute)
            ) else None
            if base is not None and base.kind == "external" and base.ref == "math":
                return minus(merge(*all_args) if all_args else {}, FLOATV)
        if attr in _MUTATORS:
            var = self._global_for(func.value)
            if var is not None:
                self._record_write(node, var, f"calls .{attr}() on")
        return None

    def _resolve_callee(
        self, func: ast.expr
    ) -> tuple[Optional[FunctionInfo], Target]:
        program = self.program
        target = Target("unknown", "")
        if isinstance(func, ast.Name):
            if func.id in self.assigned:
                return None, target
            target = program.resolve_name(self.module.name, func.id)
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id in self.instance:
                fq = program.method_on(self.instance[base.id], func.attr)
                if fq is not None:
                    return program.functions.get(fq), Target("function", fq)
                return None, target
            target = program.expr_target(self.module.name, func)
        if target.kind == "function":
            return program.functions.get(target.ref), target
        if target.kind == "class":
            self._last_call_class = target.ref
            return program.constructor_of(target.ref), target
        return None, target

    def _is_random_source(self, target: Target, node: ast.Call) -> bool:
        dotted = target.dotted
        if dotted == "random.Random" and node.args:
            return False  # seeded generator: the SimRng discipline
        if dotted == "random" or dotted.startswith("random."):
            return True
        if dotted == "numpy.random" or dotted.startswith(("numpy.random.", "np.random.")):
            return True
        return False

    def _check_spec_sink(
        self,
        node: ast.Call,
        target: Target,
        pos: list,
        kws: dict,
        all_args: list,
    ) -> None:
        dotted = target.dotted
        leaf = dotted.rsplit(".", 1)[-1]
        is_sink = (
            leaf in _SPEC_SINK_NAMES and ".store" in f".{dotted}"
        ) or dotted.endswith(("RunSpec.make", ".RunSpec"))
        if not is_sink:
            return
        for t in all_args:
            origin = t.get(LOCALFN)
            if origin is not None and self.emitting:
                self.an.emit(
                    self.fn,
                    node,
                    "FLOW005",
                    f"{origin.desc} flows into store spec-key construction "
                    f"({leaf}); closures have no stable identity, so this "
                    "raises UnstorableSpecError at run time -- pass a "
                    "module-level function or an AppSpec instead",
                )
            for p in _params_in(t):
                self.spec_sink_params.add(p)

    def _apply_summary(
        self,
        node: ast.Call,
        callee: FunctionInfo,
        pos: list,
        kws: dict,
    ) -> Taints:
        summary = self.an.summary_of(callee.qual)
        self.calls.add(callee.qual)
        params = callee.params
        bound: dict[str, Taints] = {}
        for i, t in enumerate(pos):
            if i < len(params):
                bound[params[i]] = t
        for name, t in kws.items():
            if name in params:
                bound[name] = t

        callee_decision = callee.module.in_dirs(DECISION_DIRS)
        callee_time = callee.module.in_dirs(TIME_DIRS)
        for pname, t in sorted(bound.items()):
            if pname in summary.float_div_params and TS in t and callee_time:
                if self.emitting:
                    self.an.emit(
                        self.fn,
                        node,
                        "FLOW001",
                        f"engine-timestamp value ({t[TS].desc}) passed to "
                        f"{callee.name}(), which applies float arithmetic to "
                        f"parameter {pname!r}; engine time is integer "
                        "microseconds",
                    )
            if pname in summary.sched_time_params and FLOATV in t:
                if self.emitting:
                    self.an.emit(
                        self.fn,
                        node,
                        "FLOW001",
                        f"float-valued expression ({t[FLOATV].desc}) passed to "
                        f"{callee.name}(), which forwards parameter {pname!r} "
                        "to an engine schedule time; engine time is integer "
                        "microseconds",
                    )
            if pname in summary.iter_params and UNORD in t and callee_decision:
                if self.emitting:
                    self.an.emit(
                        self.fn,
                        node,
                        "FLOW003",
                        f"unordered set ({t[UNORD].desc}) passed to "
                        f"{callee.name}() in a scheduling-decision module, "
                        f"which iterates parameter {pname!r}; sort before "
                        "handing sets to decision code",
                    )
            if pname in summary.spec_sink_params and LOCALFN in t:
                if self.emitting:
                    self.an.emit(
                        self.fn,
                        node,
                        "FLOW005",
                        f"{t[LOCALFN].desc} passed to {callee.name}(), which "
                        f"forwards parameter {pname!r} into store spec-key "
                        "construction; closures raise UnstorableSpecError -- "
                        "pass a module-level function instead",
                    )
            if RAND in t and callee_decision:
                if self.emitting:
                    self.an.emit(
                        self.fn,
                        node,
                        "FLOW002",
                        f"value carrying global randomness ({t[RAND].desc}) "
                        f"passed into scheduling-decision code "
                        f"({callee.name}()); draw from the seeded "
                        "repro.sim.rng.SimRng streams instead",
                    )
            # transitive sink summaries for our own parameters
            for caller_param in _params_in(t):
                if pname in summary.float_div_params:
                    self.float_div_params.add(caller_param)
                if pname in summary.sched_time_params:
                    self.sched_time_params.add(caller_param)
                if pname in summary.iter_params and callee_decision:
                    self.iter_params.add(caller_param)
                if pname in summary.spec_sink_params:
                    self.spec_sink_params.add(caller_param)

        result: Taints = {}
        for token, origin in summary.returns.items():
            if token.startswith(_PARAM):
                pname = token[len(_PARAM) :]
                if pname in bound:
                    for tok, orig in bound[pname].items():
                        result.setdefault(tok, _via(orig, callee.name))
            else:
                result.setdefault(token, _via(origin, callee.name))

        if RAND in result and self.decision and self.emitting:
            self.an.emit(
                self.fn,
                node,
                "FLOW002",
                f"call to {callee.name}() returns a value carrying global "
                f"randomness ({result[RAND].desc}) into a scheduling-decision "
                "module; draw from the seeded repro.sim.rng.SimRng streams "
                "instead",
            )
        return result
