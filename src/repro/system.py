"""System: the assembled simulated machine.

``System`` wires together a :class:`~repro.topology.Machine`, one
:class:`~repro.sched.CoreSim` per hardware context, a kernel-level
balancer (the *space* dimension: Linux, ULE, DWRR, pinned or none) and
any number of user-level speed balancers, and exposes the primitive
operations everything above is built from:

* ``spawn_burst``  -- create tasks, placing them the way the paper
  describes Linux doing it: "at task start-up Linux tries to assign it
  an idle core, but the idleness information is not updated when
  multiple tasks start simultaneously" (footnote 1) -- the whole burst
  shares one stale load snapshot;
* ``migrate``      -- move a task between run queues, paying the cache
  model's migration debt and honoring ``sched_setaffinity`` semantics
  for forced moves;
* ``wake`` / ``put_to_sleep`` -- blocking and wakeup with CFS sleeper
  vruntime credit;
* ``run_until_done`` -- drive the event loop until the applications
  under study finish (background tasks may run forever).

The system itself has no balancing policy; it only provides mechanism.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

from repro.balance.base import KernelBalancer
from repro.mem.cache_model import CacheModel
from repro.metrics.trace import MigrationEvent, TraceRecorder
from repro.sched.cfs import CfsParams, O1Params
from repro.sched.core import CoreSim
from repro.sched.task import TASK_FINISHED, TASK_RUNNABLE, TASK_RUNNING, TASK_SLEEPING, Task
from repro.sim.backends import make_engine
from repro.sim.engine import Engine
from repro.sim.rng import SimRng
from repro.topology.machine import Machine

__all__ = ["System"]


class System:
    """A simulated multicore machine ready to run workloads.

    Parameters
    ----------
    machine:
        Hardware description (see :mod:`repro.topology.presets`).
    seed:
        Root seed for all randomized decisions of this run.
    cfs_params:
        Per-core scheduler tunables.
    cache_model:
        Migration pricing (see :mod:`repro.mem.cache_model`).
    yield_check_us:
        Simulation granularity of a ``sched_yield`` busy loop: how long
        a yielding waiter occupies the core before handing it to a
        queued co-runner.  (With an empty queue, yield returns
        immediately and the waiter effectively polls; that case is
        simulated in whole scheduler slices.)
    trace:
        Record every execution interval and migration into a
        :class:`~repro.metrics.trace.TraceRecorder` (post-hoc speed
        computation, core utilization, ASCII Gantt charts, and the
        schedule sanitizer's race/conservation analysis).  Pass True
        for a default recorder or a :class:`TraceRecorder` instance to
        control the record limit.  Off by default: tracing costs memory
        proportional to context switches.
    scheduler:
        Per-core scheduling policy: ``"cfs"`` (Linux >= 2.6.23, the
        default) or ``"o1"`` (the pre-CFS fixed-quantum round robin of
        the 2.6.22 kernel DWRR was prototyped on).
    engine:
        Event-dispatch backend: ``"heap"`` (the default, pure Python)
        or ``"native"`` (the same engine with its drain loop and CFS
        dispatch cycle compiled to C).  Backends are bit-identical in
        behaviour -- the golden-digest suite enforces it -- and differ
        only in speed; see :mod:`repro.sim.backends`.

    Every field is a slot: the native engine core reads the charge
    hooks, the trace and the core list at fixed offsets, so a new field
    must be added to ``__slots__``.
    """

    __slots__ = (
        "machine", "engine", "engine_backend", "rng", "scheduler",
        "cfs_params", "cache_model", "yield_check_us", "trace",
        "_mem_scope_busy", "_load_epoch", "_residents", "cores", "tasks",
        "kernel_balancer", "_kb_on_charge", "user_balancers", "migration_counts",
        "_exit_callbacks", "_watch", "_watching", "charge_observers",
        "migration_observers", "invariant_checker",
    )

    def __init__(
        self,
        machine: Machine,
        seed: int = 0,
        cfs_params: Optional[CfsParams] = None,
        cache_model: Optional[CacheModel] = None,
        yield_check_us: int = 20,
        trace: Union[bool, TraceRecorder] = False,
        scheduler: str = "cfs",
        engine: str = "heap",
    ):
        self.machine = machine
        self.engine: Engine = make_engine(engine)
        #: the backend name behind :attr:`engine` (spec/key plumbing)
        self.engine_backend = engine
        self.rng = SimRng(seed)
        if scheduler not in ("cfs", "o1"):
            raise ValueError("scheduler must be 'cfs' or 'o1'")
        self.scheduler = scheduler
        if cfs_params is None:
            cfs_params = O1Params() if scheduler == "o1" else CfsParams()
        self.cfs_params = cfs_params
        self.cache_model = cache_model or CacheModel()
        self.yield_check_us = yield_check_us
        #: optional execution trace (see repro.metrics.trace)
        if isinstance(trace, TraceRecorder):
            self.trace: Optional[TraceRecorder] = trace
        else:
            self.trace = TraceRecorder() if trace else None
        # -- maintained hot-path indexes (see docs/performance.md) ------
        #: memory-contention scope key -> sorted [(cid, mem_intensity)]
        #: of cores whose *running* task has positive intensity; scope
        #: is the NUMA node (mem_contention_scope == "node") or one
        #: machine-wide bucket.  Summing the list in cid order
        #: reproduces the old all-core sweep's float result bit-exactly
        #: (adding 0.0 is exact, so skipping idle/zero cores is too).
        self._mem_scope_busy: dict[int, list[tuple[int, float]]] = {}
        #: global load epoch: a one-element cell bumped on every
        #: mutation that can change any core's ``nr_running`` (enqueue/
        #: dequeue/interrupt/put-back/dispatch).  Monotonic, so a memo
        #: entry keyed on a stale epoch can never falsely match.  The
        #: Linux balancer's no-op-pass replay reads it; the lone-task
        #: redispatch fast path touches no queue state and leaves it
        #: alone, which is exactly why steady-state balancer ticks
        #: collapse to replays.
        self._load_epoch: list[int] = [0]
        #: per-core residency: cid -> {tid: Task} of tasks whose
        #: current-or-last core is cid (see note_residency)
        self._residents: list[dict[int, Task]] = [{} for _ in machine.cores]
        self.cores: list[CoreSim] = [CoreSim(self, hw) for hw in machine.cores]
        self.tasks: list[Task] = []
        self.kernel_balancer = None  # set by set_balancer
        #: bound on_charge of the kernel balancer, or None when it uses
        #: the base-class no-op -- the dispatch path's charge hook skips
        #: a guaranteed-empty call per charge (see CoreSim._charge_current)
        self._kb_on_charge: Optional[Callable[[CoreSim, Task, int], None]] = None
        self.user_balancers: list = []
        # -- bookkeeping ----------------------------------------------
        self.migration_counts: dict[str, int] = {}
        self._exit_callbacks: dict[int, list[Callable[[Task], None]]] = {}
        self._watch: set[int] = set()
        self._watching = False
        # -- instrumentation hooks (see repro.analysis.invariants) -----
        #: observers called as fn(core, task, dt) after every execution-
        #: time charge (in addition to the kernel balancer's on_charge)
        self.charge_observers: list[Callable[[CoreSim, Task, int], None]] = []
        #: observers called as fn(task, event) after every successful
        #: migration, before the task is enqueued on its destination
        self.migration_observers: list[Callable[[Task, MigrationEvent], None]] = []
        #: the installed invariant checker, if any (opt-in; set by
        #: repro.analysis.invariants.install_invariant_checker)
        self.invariant_checker: Optional[object] = None

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def set_balancer(self, balancer) -> None:
        """Install the kernel-level balancer (call before spawning)."""
        self.kernel_balancer = balancer
        self._kb_on_charge = (
            balancer.on_charge
            if type(balancer).on_charge is not KernelBalancer.on_charge
            else None
        )
        balancer.attach(self)

    def add_user_balancer(self, balancer) -> None:
        """Install a user-level balancer (the paper's speedbalancer)."""
        self.user_balancers.append(balancer)
        balancer.attach(self)

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------
    def spawn_burst(self, tasks: Sequence[Task], at: int = 0) -> None:
        """Create ``tasks`` simultaneously at time ``at``.

        Placement models the Linux fork-balance race: the entire burst
        is placed using one load snapshot taken before any member is
        enqueued, so simultaneous starters can clump onto the same
        "idle" cores.  Balancers may override placement per task.
        """
        tasks = list(tasks)

        def do_spawn() -> None:
            snapshot = [c.nr_running for c in self.cores]
            for task in tasks:
                self.tasks.append(task)
                task.started_at = self.engine.now
                cid = self._initial_core(task, snapshot)
                core = self.cores[cid]
                task.vruntime = core.rq.min_vruntime
                task.program.on_start(task, self.engine.now)
                core.enqueue(task, wakeup=True)

        self.engine.schedule_at(max(at, self.engine.now), do_spawn, "spawn_burst")

    def _initial_core(self, task: Task, snapshot: list[int]) -> int:
        if task.allowed_cores is not None and len(task.allowed_cores) == 1:
            return next(iter(task.allowed_cores))
        if self.kernel_balancer is not None:
            return self.kernel_balancer.place_new_task(task, snapshot)
        # no balancer: least loaded allowed core by the stale snapshot
        allowed = self._allowed(task)
        return min(allowed, key=lambda c: (snapshot[c], c))

    def _allowed(self, task: Task) -> list[int]:
        if task.allowed_cores is None:
            return list(range(len(self.cores)))
        return sorted(task.allowed_cores)

    def put_to_sleep(self, task: Task, wake_in: int) -> None:
        """Block ``task``; it wakes ``wake_in`` microseconds from now."""
        task.state = TASK_SLEEPING
        task.cur_core = None
        self.note_residency(task)
        self.engine.schedule(max(1, wake_in), lambda: self.wake(task, 0), "sleep_wake")

    def wake(self, task: Task, latency_us: int = 0) -> None:
        """Make a sleeping task runnable (after an optional latency)."""
        if latency_us > 0:
            self.engine.schedule(latency_us, lambda: self.wake(task, 0), "wake")
            return
        if task.state is not TASK_SLEEPING:
            return  # already woken by another path
        prev = task.last_core if task.last_core is not None else 0
        if not task.can_run_on(prev):
            prev = self._allowed(task)[0]
        if self.kernel_balancer is not None:
            prev = self.kernel_balancer.place_woken(task, prev)
        core = self.cores[prev]
        task.state = TASK_RUNNABLE
        task.vruntime = max(
            task.vruntime, core.rq.min_vruntime - self.cfs_params.sleeper_credit
        )
        core.enqueue(task, wakeup=True)

    def task_exited(self, task: Task) -> None:
        """Called by a core when a task's program returns EXIT."""
        task.state = TASK_FINISHED
        task.finished_at = self.engine.now
        task.cur_core = None
        self.note_residency(task)
        task.program.on_exit(task, self.engine.now)
        for cb in self._exit_callbacks.pop(task.tid, []):
            cb(task)
        self._watch.discard(task.tid)
        if self._watching and not self._watch:
            self.engine.stop()

    def on_exit(self, task: Task, callback: Callable[[Task], None]) -> None:
        """Register a completion callback for ``task``."""
        self._exit_callbacks.setdefault(task.tid, []).append(callback)

    # ------------------------------------------------------------------
    # migration (the one mechanism every balancer shares)
    # ------------------------------------------------------------------
    def migrate(
        self,
        task: Task,
        dst_cid: int,
        forced: bool = False,
        pin: bool = False,
        reason: str = "",
    ) -> bool:
        """Move a runnable/running task to core ``dst_cid``.

        ``forced`` gives ``sched_setaffinity`` semantics (interrupt a
        running task mid-quantum); non-forced moves refuse running
        tasks, as the Linux balancer does.  ``pin`` additionally
        restricts the task to the destination core -- what the paper's
        ``speedbalancer`` relies on so "any threads moved by
        speedbalancer do not also get moved by the Linux load
        balancer".

        Returns True if the task actually moved.
        """
        if not task.can_run_on(dst_cid) and not pin:
            return False
        src = task.cur_core
        if src == dst_cid:
            if pin:
                task.pin(frozenset({dst_cid}))
            return False
        was_running = task.state is TASK_RUNNING
        if was_running:
            if not forced:
                return False
            assert src is not None
            src_core = self.cores[src]
            src_core.interrupt()
            task.cur_core = None
        elif task.state is TASK_RUNNABLE:
            assert src is not None
            self.cores[src].dequeue(task)
        else:
            return False  # sleeping/finished tasks are not on any queue

        dst = self.cores[dst_cid]
        if src is not None:
            # CFS vruntime renormalization across queues
            task.vruntime = (
                task.vruntime - self.cores[src].rq.min_vruntime + dst.rq.min_vruntime
            )
            task.migration_debt_us += self.cache_model.migration_cost_us(
                self.machine, task.footprint_bytes, src, dst_cid
            )
            self.cores[src].stats.migrations_out += 1
            if (
                self.machine.numa
                and task.compute_us < self.cache_model.first_touch_window_us
            ):
                # moved before its data was allocated: re-home on the
                # destination node at the next compute touch
                task.home_node = None
        dst.stats.migrations_in += 1
        task.migrations += 1
        task.last_migrated_at = self.engine.now
        if pin:
            task.pin(frozenset({dst_cid}))
        self._record_migration(task, src, dst_cid, forced, reason)
        dst.enqueue(task, wakeup=False)
        if was_running and src is not None:
            # the interrupted source core must pick a new task
            self.cores[src].resched()
        return True

    def _record_migration(
        self, task: Task, src: Optional[int], dst: int, forced: bool, reason: str
    ) -> None:
        self.migration_counts[reason] = self.migration_counts.get(reason, 0) + 1
        now = self.engine.now
        if self.trace is not None:
            self.trace.record_migration(now, task.tid, task.name, src, dst, forced, reason)
        if self.migration_observers:
            event = MigrationEvent(now, task.tid, task.name, src, dst, forced, reason)
            for observer in self.migration_observers:
                observer(task, event)

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def on_task_charged(self, core: CoreSim, task: Task, dt: int) -> None:
        """Charging hook: lets DWRR account round slices."""
        if self.kernel_balancer is not None:
            self.kernel_balancer.on_charge(core, task, dt)
        for observer in self.charge_observers:
            observer(core, task, dt)

    # ------------------------------------------------------------------
    # dynamic frequency (Turbo-Boost-style clock changes)
    # ------------------------------------------------------------------
    def set_clock_factor(self, cid: int, factor: float) -> None:
        """Change a core's clock factor at the current instant.

        Models Turbo Boost / thermal throttling (the paper's Section 3
        motivation: cores "might run at different clock speeds" that
        change as "temperature rises").  The running task is charged at
        its old rate up to now and redispatched at the new one, so
        accounting stays exact.  Queue-length balancers cannot see the
        change at all; the speed balancer observes it through the
        clock-weighted speed metric within a balance interval.
        """
        if factor <= 0:
            raise ValueError("clock factor must be positive")
        core = self.cores[cid]
        self.machine.cores[cid].clock_factor = float(factor)
        core._clock_factor = float(factor)  # keep the core's hot-path cache in sync
        if core.current is not None:
            core.resched()

    def schedule_clock_change(self, at: int, cid: int, factor: float) -> None:
        """Apply :meth:`set_clock_factor` at simulation time ``at``."""
        self.engine.schedule_at(
            max(at, self.engine.now),
            lambda: self.set_clock_factor(cid, factor),
            f"clock.{cid}",
        )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> None:
        """Run the event loop (to quiescence or ``until``)."""
        self.engine.run(until=until)

    def run_until_done(self, apps: Iterable, limit_us: int = 3_600_000_000) -> None:
        """Run until every task of every app in ``apps`` has exited.

        ``limit_us`` (default: one simulated hour) guards against a
        workload that cannot finish, e.g. due to a balancer bug
        starving a barrier.
        """
        self._watch = set()
        self._watching = True
        for app in apps:
            for t in getattr(app, "tasks", [app]):
                if t.finished_at is None:
                    self._watch.add(t.tid)
        if not self._watch:
            self._watching = False
            return
        self.engine.run(until=self.engine.now + limit_us)
        self._watching = False
        if self._watch:
            undone = [t.name for t in self.tasks if t.tid in self._watch]
            raise RuntimeError(
                f"simulation limit reached with unfinished tasks: {undone[:8]}"
            )

    # ------------------------------------------------------------------
    # residency index (the /proc-affinity analog, maintained not scanned)
    # ------------------------------------------------------------------
    def note_residency(self, task: Task) -> None:
        """Refresh ``task``'s slot in the per-core residency index.

        A task *resides* on its current core, or -- sleeping/descheduled,
        exactly the taskstats semantics the user-level balancers sample
        -- on the core it last ran on; a FINISHED task resides nowhere.
        Every mutation of ``cur_core``/``last_core``/``state`` that can
        change that answer calls this; the balancers then read
        :meth:`residents_on` in O(residents) instead of scanning every
        task of the application per wake.
        """
        if task.state is TASK_FINISHED:
            where = None
        else:
            where = task.cur_core if task.cur_core is not None else task.last_core
        old = task.resident_core
        if where == old:
            return
        if old is not None:
            self._residents[old].pop(task.tid, None)
        if where is not None:
            self._residents[where][task.tid] = task
        task.resident_core = where

    def residents_on(self, cid: int) -> dict[int, Task]:
        """Live view of the residency index for one core: tid -> Task.

        Callers must not mutate it, and must impose their own
        deterministic order (dict order here is arrival order).
        """
        return self._residents[cid]

    # ------------------------------------------------------------------
    # introspection (the /proc analog used by user-level balancers)
    # ------------------------------------------------------------------
    def queue_lengths(self) -> list[int]:
        return [c.nr_running for c in self.cores]

    def tasks_of_app(self, app_id: str) -> list[Task]:
        return [t for t in self.tasks if t.app_id == app_id]

    def total_migrations(self) -> int:
        return sum(self.migration_counts.values())

    def __repr__(self) -> str:
        return (
            f"<System {self.machine.name} t={self.engine.now}us"
            f" tasks={len(self.tasks)} migrations={self.total_migrations()}>"
        )
