"""Spans and counters for the traced benchmark run, taken from outside.

Nothing here changes the program: every measurement is the benchmark's
own code wrapped around a public entry point.

* :class:`TimedStore` is a :class:`~repro.store.ResultStore` whose
  ``get``/``put``/``load_trace`` record spans; ``JobService`` and
  ``sanitize_stored`` are handed one in place of the plain store.
* :class:`TimedApp` is the benchmark's own app factory.  It opens the
  per-cell ``harness.run_spec`` span and, in the detailed pass, wraps
  every task's ``Program.next_action`` with a timer.
* :func:`instrument` is passed as ``run_app(instrument=...)`` through
  the spec's params.  It installs an ``Engine.observers`` hook (each
  call closes the previous event's span, named by its label kind) and
  swaps the run's recorder for a :class:`TimedRecorder`.

``TimedApp`` and ``instrument`` travel inside run specs, which the
store keys by qualified name, so they cannot carry a reference to the
tracer.  They find it through :data:`ACTIVE`, which only the traced
run sets (see :func:`activate`).
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.apps.workloads import AppSpec
from repro.metrics.trace import TraceRecorder
from repro.sched.task import Program
from repro.sim.backends.nativebuild import native_stats
from repro.store import ResultStore

_now = time.perf_counter

#: the tracer of the pass in progress, or None (untraced runs)
ACTIVE: Optional["Tracer"] = None


@contextlib.contextmanager
def activate(tracer: "Tracer") -> Iterator["Tracer"]:
    """Make ``tracer`` the one the spec-borne hooks report to."""
    global ACTIVE
    ACTIVE = tracer
    try:
        yield tracer
    finally:
        tracer.end_run()
        ACTIVE = None


def event_kind(label: str) -> str:
    """The layer an engine event belongs to, from its label."""
    if label.startswith("core") and label[4:].isdigit():
        return "sched"
    if label.startswith(("linux.tick", "ule.", "dwrr.")):
        return "balance"
    if label.startswith("speed."):
        return "core"
    if label in ("wake", "sleep_wake"):
        return "wake"
    return "other"


class Tracer:
    """Spans and counts of one benchmark pass, kept in memory.

    A span is ``[name, start, end, parent, op]``: ``parent`` is the
    index of the enclosing span (-1 at top level) and ``op`` the cell
    or job it belongs to.  Engine events are too many to keep one by
    one, so each event kind accumulates count and self time instead.
    """

    def __init__(self, events: bool):
        #: per-event attribution (observers, next_action, trace records)
        self.events = events
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.op = ""
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self._kinds: dict[str, str] = {}
        # the run span in progress: (span index, system, native stats)
        self._run: Optional[tuple[int, Any, Optional[dict]]] = None
        # the event span in progress and the child time seen so far
        self._ev_kind = ""
        self._ev_t = 0.0
        self._ev_child = 0.0
        self._child_s = 0.0

    # -- spans ----------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        while self._stack:
            top = self._stack.pop()
            if self.spans[top][2] is None:
                self.spans[top][2] = _now()
            if top == index:
                return

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    # -- simulated cells ------------------------------------------------
    def begin_run(self, system: Any) -> None:
        self.end_run()
        stats = native_stats() if system.engine_backend == "native" else None
        self._run = (self.begin("harness.run_spec"), system, stats)
        self._ev_kind = ""

    def end_run(self) -> None:
        """Close the open cell span and read the run's own counters."""
        if self._run is None:
            return
        index, system, stats0 = self._run
        self._run = None
        if self._ev_kind:
            self._close_event(_now())
            self._ev_kind = ""
        self.end(index)
        span = self.spans[index]
        engine = system.engine_backend
        fp = system.engine.fingerprint()
        c, s = self.counts, self.seconds
        c["harness.cells"] += 1
        c["sim.events"] += fp["dispatched"]
        c["sim.scheduled"] += fp["scheduled"]
        c[f"sim.{engine}.events"] += fp["dispatched"]
        s[f"sim.{engine}.run_s"] += span[2] - span[1]
        if stats0 is not None:
            stats1 = native_stats()
            c["sim.native.fused"] += stats1["fused"] - stats0["fused"]
        for core in system.cores:
            c["sched.dispatches"] += core.stats.dispatches
            c["sched.context_switches"] += core.stats.context_switches
        kb = system.kernel_balancer
        c["balance.attempts"] += getattr(kb, "stats_attempts", 0)
        for name in ("stats_pulls", "stats_pushes", "stats_steals"):
            c["balance.pulls"] += getattr(kb, name, 0)
        for ub in system.user_balancers:
            c["core.pulls"] += getattr(ub, "stats_pulls", 0)
        c["system.migrations"] += system.total_migrations()

    # -- engine observer ------------------------------------------------
    def _close_event(self, now: float) -> None:
        child = self._child_s - self._ev_child
        self.seconds[self._ev_kind] += now - self._ev_t - child

    def on_event(self, ev: Any) -> None:
        now = _now()
        if self._ev_kind:
            self._close_event(now)
        kind = self._kinds.get(ev.label)
        if kind is None:
            kind = self._kinds[ev.label] = event_kind(ev.label)
        self.counts[kind] += 1
        self._ev_kind = kind
        self._ev_t = now
        self._ev_child = self._child_s

    def add_child(self, key: str, dt: float) -> None:
        """Time spent inside an event that belongs to another layer."""
        self._child_s += dt
        self.seconds[key] += dt
        self.counts[key] += 1


class TimedProgram(Program):
    """Delegates to a task's program, timing ``next_action``."""

    def __init__(self, inner: Program, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def next_action(self, task, now):
        t = _now()
        action = self.inner.next_action(task, now)
        self.tracer.add_child("apps.next_action", _now() - t)
        return action

    def on_start(self, task, now):
        self.inner.on_start(task, now)

    def on_exit(self, task, now):
        self.inner.on_exit(task, now)


class TimedRecorder(TraceRecorder):
    """A ``TraceRecorder`` that times its own appends."""

    def __init__(self, tracer: Tracer, limit: int, migration_limit: int):
        super().__init__(limit=limit, migration_limit=migration_limit)
        self.tracer = tracer

    def record(self, *args, **kwargs):
        t = _now()
        super().record(*args, **kwargs)
        self.tracer.add_child("trace.record", _now() - t)

    def record_migration(self, *args, **kwargs):
        t = _now()
        super().record_migration(*args, **kwargs)
        self.tracer.add_child("trace.record", _now() - t)


@dataclass(frozen=True)
class TimedApp:
    """The benchmark's app factory: an ``AppSpec`` plus cell spans."""

    app: AppSpec

    def __call__(self, system):
        tracer = ACTIVE
        if tracer is not None:
            tracer.begin_run(system)
        built = self.app(system)
        if tracer is not None and tracer.events:
            for task in built.tasks:
                task.program = TimedProgram(task.program, tracer)
        return built


def instrument(system) -> None:
    """``run_app(instrument=...)`` hook of the detailed traced pass."""
    tracer = ACTIVE
    if tracer is None or not tracer.events:
        return
    system.engine.observers.append(tracer.on_event)
    old = system.trace
    if old is not None:
        # nothing has been recorded yet: the run starts after this hook
        system.trace = TimedRecorder(tracer, old.limit, old.migration_limit)


class TimedStore(ResultStore):
    """A ``ResultStore`` whose reads and writes record spans."""

    def __init__(self, root, tracer: Tracer):
        super().__init__(root)
        self.tracer = tracer

    def get(self, digest_or_spec):
        with self.tracer.span("store.get"):
            return super().get(digest_or_spec)

    def put(self, spec, outcome, trace=None):
        # JobService files a fresh result right after simulating it
        self.tracer.end_run()
        if trace is not None:
            self.tracer.counts["trace.segments"] += len(trace.segments)
            self.tracer.counts["trace.migration_events"] += len(trace.migrations)
        with self.tracer.span("store.put"):
            return super().put(spec, outcome, trace=trace)

    def load_trace(self, digest_or_spec):
        with self.tracer.span("store.load_trace"):
            return super().load_trace(digest_or_spec)


def durations(tracer: Tracer, name: str) -> list[float]:
    return [s[2] - s[1] for s in tracer.spans if s[0] == name and s[2] is not None]


def self_seconds(tracer: Tracer, name: str) -> float:
    """Total duration of ``name`` spans minus their children's."""
    total = 0.0
    own = set()
    for i, s in enumerate(tracer.spans):
        if s[0] == name and s[2] is not None:
            total += s[2] - s[1]
            own.add(i)
    for s in tracer.spans:
        if s[3] in own and s[2] is not None:
            total -= s[2] - s[1]
    return total
