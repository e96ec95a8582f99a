"""One simulated core: dispatch, time slicing, charging, preemption.

``CoreSim`` implements the *time* dimension of scheduling on a single
core: it picks the leftmost (smallest vruntime) runnable task, runs it
for up to a CFS time slice, charges its execution time (the quantity
the speed metric is built on) and handles the three synchronization
wait behaviours -- spin, ``sched_yield`` loop, sleep -- whose different
visibility to queue-length balancing is central to the paper.

Event discipline
----------------
A core has at most one pending engine event (slice end / compute
completion / yield expiry).  Any state change -- wakeup enqueue,
migration in or out, barrier release, balancer interruption -- calls
:meth:`resched`, which charges the interval elapsed so far, requeues
the current task and dispatches afresh.  A generation counter makes
superseded events harmless.

Execution rate
--------------
A task retires ``rate`` microseconds of work per wall microsecond,

    rate = clock_factor * smt_factor / numa_slowdown

where ``smt_factor`` derates a hardware context whose SMT sibling is
busy and ``numa_slowdown`` applies when the task's memory lives on a
remote NUMA node (see :mod:`repro.mem.cache_model`).  The rate is
captured at dispatch; every rate-changing transition (sibling busy/idle
flip, migration) forces a resched, so captured-rate charging is exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.sched.cfs import CfsParams
from repro.sched.runqueue import CfsRunQueue, O1RunQueue
from repro.sched.task import (
    ACT_COMPUTE,
    ACT_EXIT,
    ACT_SLEEP,
    ACT_WAIT_BARRIER,
    NICE_0_WEIGHT,
    TASK_RUNNABLE,
    TASK_RUNNING,
    TASK_SLEEPING,
    WAIT_SLEEP,
    WAIT_YIELD,
    Task,
)
from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System
    from repro.topology.machine import Core

__all__ = ["CoreSim", "CoreStats"]

#: epsilon below which remaining work counts as done (guards float dust)
_WORK_EPS = 1e-6


@dataclass(slots=True)
class CoreStats:
    """Per-core counters used by the metrics layer."""

    busy_us: int = 0
    spin_us: int = 0  # busy time spent in synchronization spin/yield
    context_switches: int = 0
    dispatches: int = 0
    migrations_in: int = 0
    migrations_out: int = 0
    idle_balance_calls: int = 0


class CoreSim:
    """A single simulated core with a CFS run queue.

    Every field is a slot: the native engine core reads and writes the
    dispatch fields at fixed offsets (``engine_core.c``), so a new
    field must be added to ``__slots__``.
    """

    __slots__ = (
        "system", "engine", "hw", "cid", "params", "rq", "current",
        "dispatch_started_at", "stats", "throttled", "idle_callbacks",
        "idle_since", "_event", "_gen", "_in_resched", "_rate_at_dispatch",
        "yield_check_us", "_mem_track", "_mem_busy", "_load_epoch",
        "_clock_factor", "_numa_node", "_numa", "_numa_remote_slowdown",
        "_smt_derate", "_mem_alpha", "_smt_active", "_sib_core",
        "_event_label",
    )

    def __init__(self, system: "System", hw: "Core") -> None:
        self.system = system
        self.engine = system.engine
        self.hw = hw
        self.cid: int = hw.cid
        self.params: CfsParams = system.cfs_params
        self.rq = O1RunQueue() if system.scheduler == "o1" else CfsRunQueue()
        self.current: Optional[Task] = None
        self.dispatch_started_at: int = 0
        self.stats = CoreStats()
        #: DWRR round-expired tasks: runnable, but parked off the queue
        self.throttled: list[Task] = []
        #: balancer hooks fired when the core runs out of work
        self.idle_callbacks: list[Callable[["CoreSim"], None]] = []
        self.idle_since: int = 0
        self._event = None  # pending engine event
        self._gen: int = 0
        self._in_resched = False
        self._rate_at_dispatch: float = 1.0
        #: microseconds a yielding waiter occupies the core per yield
        #: when co-runners are queued (a sched_yield loop hands over
        #: almost immediately; this is the simulation granularity)
        self.yield_check_us: int = system.yield_check_us
        # -- memory-contention index wiring (see System._mem_scope_busy):
        # cores of one contention scope share a sorted (cid, intensity)
        # list; a core joins it while running a positive-intensity task
        self._mem_track: bool = system.machine.mem_contention_alpha > 0.0
        scope_key = (
            hw.numa_node if system.machine.mem_contention_scope == "node" else -1
        )
        self._mem_busy: list[tuple[int, float]] = system._mem_scope_busy.setdefault(
            scope_key, []
        )
        #: global load-epoch cell (see System._load_epoch), bumped on
        #: every nr_running-affecting mutation of *this* core
        self._load_epoch: list[int] = system._load_epoch
        # -- dispatch-path caches: machine/topology facts are immutable
        # for the lifetime of a System, so the per-dispatch rate and
        # slice computations read locals instead of chasing attributes.
        # clock_factor is the one dynamic member: System.set_clock_factor
        # writes this cache alongside the hw record.
        machine = system.machine
        self._clock_factor: float = hw.clock_factor
        self._numa_node = hw.numa_node
        self._numa: bool = machine.numa
        self._numa_remote_slowdown: float = machine.numa_remote_slowdown
        self._smt_derate: float = machine.smt_derate
        self._mem_alpha: float = machine.mem_contention_alpha
        #: SMT affects the rate only with a sibling and a derate that is
        #: not exactly 1.0 (multiplying by 1.0 is an exact float no-op,
        #: so skipping it is bit-identical)
        self._smt_active: bool = (
            hw.smt_sibling is not None and machine.smt_derate != 1.0
        )
        #: lazily resolved sibling CoreSim (cores are built in cid order,
        #: so the sibling may not exist yet during __init__)
        self._sib_core: Optional["CoreSim"] = None
        self._event_label: str = f"core{self.cid}"

    # ------------------------------------------------------------------
    # queue state
    # ------------------------------------------------------------------
    @property
    def nr_running(self) -> int:
        """Linux's per-core load: queued plus currently running tasks.

        This is the quantity the queue-length balancers equalize -- and
        note that spinning/yielding waiters are counted while sleepers
        are not, exactly the distinction the paper exploits.
        """
        return self.rq.count + (1 if self.current is not None else 0)

    @property
    def is_idle(self) -> bool:
        return self.current is None and self.rq.count == 0

    def runnable_tasks(self) -> list[Task]:
        """All runnable tasks on this core, current first."""
        out = [self.current] if self.current is not None else []
        out.extend(self.rq.tasks())
        return out

    def sibling(self) -> Optional["CoreSim"]:
        sib = self._sib_core
        if sib is None and self.hw.smt_sibling is not None:
            sib = self._sib_core = self.system.cores[self.hw.smt_sibling]
        return sib

    # ------------------------------------------------------------------
    # entry points used by System / balancers / barriers
    # ------------------------------------------------------------------
    def enqueue(self, task: Task, wakeup: bool = False) -> None:
        """Place a runnable task on this core's queue.

        ``wakeup`` enables CFS wakeup preemption: a freshly woken task
        whose vruntime is sufficiently behind the current task's
        preempts it.
        """
        task.cur_core = self.cid
        task.state = TASK_RUNNABLE
        self.system.note_residency(task)
        self.rq.push(task)
        self._load_epoch[0] += 1
        if self._in_resched:
            return  # the active dispatch loop will see the new task
        if self.current is None:
            self.resched()
        elif self.current.is_waiting and self.current.wait_mode is WAIT_YIELD:
            # a lone yield-poller was occupying the core in whole
            # slices; its very next sched_yield hands over to the
            # arrival, which is "now" at simulation granularity
            self.resched()
        elif wakeup and self._should_preempt(task):
            self.resched()
        self._notify_sibling_rate_change()

    def dequeue(self, task: Task) -> None:
        """Remove a queued (not running) task, e.g. for migration."""
        if task in self.rq:
            self.rq.remove(task)
        elif task in self.throttled:
            self.throttled.remove(task)
        else:
            raise ValueError(f"{task} not queued on core {self.cid}")
        self._load_epoch[0] += 1
        task.cur_core = None
        self.system.note_residency(task)

    def interrupt(self) -> None:
        """Charge and deschedule the running task immediately.

        Used by forced migration (``sched_setaffinity`` semantics: "a
        task is moved immediately to another core, without allowing the
        task to finish the run time remaining in its quantum").
        """
        if self.current is None:
            return
        self._charge_current()
        task = self.current
        self.current = None
        self._load_epoch[0] += 1
        self._mem_note_off(task)
        task.state = TASK_RUNNABLE
        task.last_descheduled_at = self.engine.now
        task.last_core = self.cid
        # caller decides where the task goes next

    def resched(self) -> None:
        """Charge the current task, requeue it and dispatch afresh."""
        if self._in_resched:
            return
        self._charge_current()
        self._put_back_current()
        self._dispatch_next()

    def charge_now(self) -> None:
        """Charge the running task up to the current instant.

        Used by barriers just before clearing a running waiter's wait
        flags, so the elapsed interval is classified as synchronization
        time rather than compute.
        """
        self._charge_current()

    def notify_waiter_released(self, task: Task) -> None:
        """A barrier this task was spinning/yielding on just opened."""
        if task is self.current:
            self.resched()
        # queued tasks advance at their next dispatch

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def _charge_current(self) -> None:
        """Account the interval since dispatch to the running task."""
        task = self.current
        if task is None:
            return
        now = self.engine.now
        dt = now - self.dispatch_started_at
        self.dispatch_started_at = now
        if dt <= 0:
            return
        task.exec_us += dt
        waiting = task.waiting_on is not None  # is_waiting, sans property hop
        system = self.system
        if system.trace is not None:
            system.trace.record(
                task.tid, task.name, self.cid, now - dt, now,
                "wait" if waiting else "run",
            )
        task.vruntime += dt * (NICE_0_WEIGHT / task.weight)
        self.rq.note_current_vruntime(task.vruntime)
        stats = self.stats
        stats.busy_us += dt
        if waiting:
            stats.spin_us += dt
        else:
            rate = self._rate_at_dispatch
            debt_paid = min(float(dt), task.migration_debt_us)
            task.migration_debt_us -= debt_paid
            productive = dt - debt_paid
            task.work_remaining -= productive * rate
            task.compute_us += int(productive)
        # inlined System.on_task_charged: the specialized hook skips the
        # base-class no-op on_charge most kernel balancers inherit
        if system._kb_on_charge is not None:
            system._kb_on_charge(self, task, dt)
        observers = system.charge_observers
        if observers:
            for observer in observers:
                observer(self, task, dt)

    # ------------------------------------------------------------------
    # dispatch machinery
    # ------------------------------------------------------------------
    def _put_back_current(self) -> None:
        task = self.current
        if task is None:
            return
        if task.state is not TASK_RUNNING:
            # a task leaves RUNNING only through its own core, which
            # clears ``current`` as it does: the running state is corrupt
            raise SimulationError(
                f"core {self.cid} puts back {task!r}, which is not running"
            )
        self.current = None
        self._mem_note_off(task)
        task.last_descheduled_at = self.engine.now
        task.last_core = self.cid
        self.stats.context_switches += 1
        task.state = TASK_RUNNABLE
        if task.throttled:
            self._load_epoch[0] += 1
            self.throttled.append(task)
        else:
            # requeue of the running task: nr_running is unchanged, and
            # no load can be observed before the enclosing dispatch
            # restores ``current`` (mid-dispatch readers go through
            # _go_idle, which bumps) -- so the epoch stays put and
            # steady-state slice rotation keeps the balance memos warm
            self.rq.push(task)

    def _dispatch_next(self) -> None:
        """Pick the next runnable task and start executing it."""
        self._cancel_event()
        self._in_resched = True
        try:
            while True:
                task = self.rq.pop_min()
                if task is None:
                    self._go_idle()  # bumps the load epoch itself
                    if self.rq.count == 0:
                        return  # genuinely idle
                    continue  # idle balance pulled something
                if task.throttled:
                    # parked off the queue: nr_running really dropped
                    self._load_epoch[0] += 1
                    self.throttled.append(task)
                    continue
                if task.waiting_on is not None or (
                    not task.needs_advance
                    and (
                        task.work_remaining > _WORK_EPS
                        or task.migration_debt_us > _WORK_EPS
                    )
                ):
                    break  # _prepare's immediate-True cases, inlined
                if self._prepare(task):
                    break
                # task slept or exited during prepare: it left the core
                # for real, so the load epoch must move; pick again.
                # (The pop -> _start round trip itself is load-neutral
                # and deliberately does NOT bump: mid-dispatch readers
                # are funneled through _go_idle, which bumps, and
                # leaving the epoch alone is what lets the balancer
                # memos survive steady-state slice rotation.)
                self._load_epoch[0] += 1
        finally:
            self._in_resched = False
        self._start(task)

    def _prepare(self, task: Task) -> bool:
        """Advance the task's program until it has on-CPU work.

        Returns False if the task left the runnable state (sleep/exit).
        """
        now = self.engine.now
        while True:
            if task.waiting_on is not None:
                if task.wait_mode is WAIT_SLEEP:  # pragma: no cover - defensive
                    raise AssertionError("sleeping waiter found on a run queue")
                return True  # spin or yield on CPU
            if not task.needs_advance and (
                task.work_remaining > _WORK_EPS or task.migration_debt_us > _WORK_EPS
            ):
                return True
            task.needs_advance = False
            action = task.program.next_action(task, now)
            if action.type is ACT_COMPUTE:
                task.work_remaining = float(action.work_us)
                if task.home_node is None and self.system.machine.numa:
                    task.home_node = self.hw.numa_node  # first touch
                return True
            if action.type is ACT_WAIT_BARRIER:
                assert action.barrier is not None
                released = action.barrier.arrive(task, now)
                if released:
                    task.needs_advance = True
                    continue  # barrier opened; on to the next action
                if task.state is TASK_SLEEPING:
                    task.cur_core = None
                    self.system.note_residency(task)
                    return False  # sleep-mode wait
                return True  # spin/yield-mode wait
            if action.type is ACT_SLEEP:
                self.system.put_to_sleep(task, wake_in=action.sleep_us)
                return False
            if action.type is ACT_EXIT:
                self.system.task_exited(task)
                return False
            raise AssertionError(f"unknown action {action}")  # pragma: no cover

    def _start(self, task: Task) -> None:
        now = self.engine.now
        task.state = TASK_RUNNING
        task.cur_core = self.cid
        self.current = task
        self._mem_note_on(task)
        self.dispatch_started_at = now
        self.stats.dispatches += 1
        self._rate_at_dispatch = self.effective_rate(task)
        run_for = self._run_duration(task)
        self._gen += 1
        self._event = self.engine.schedule(
            run_for if run_for > 1 else 1,
            self._on_core_event,
            self._event_label,
            self._gen,
        )
        if self._smt_active:
            self._notify_sibling_rate_change()

    def _run_duration(self, task: Task) -> int:
        """How long this dispatch lasts, absent external interruption."""
        # only called from _start, where ``task`` is already current:
        # nr_running is therefore len(rq) + 1 without the property hop
        nr = self.rq.count + 1
        weight = task.weight
        total_weight = self.rq.total_weight() + weight
        params = self.params
        if type(params) is CfsParams:
            # inlined CfsParams.slice_for (sched_slice), term for term;
            # nr >= 1 and total_weight >= weight > 0 hold here, so the
            # max(1, nr) and zero-weight fallbacks cannot fire
            scaled = nr * params.min_granularity
            period = params.target_latency
            if scaled > period:
                period = scaled
            slice_us = int(period * weight / total_weight)
            if slice_us < params.min_granularity:
                slice_us = params.min_granularity
        else:
            slice_us = params.slice_for(nr, weight, total_weight)
        if task.waiting_on is not None:
            if task.wait_mode is WAIT_YIELD and self.rq.count > 0:
                # yield to the queued co-runner almost immediately
                run_for = min(slice_us, self.yield_check_us)
            else:  # SPIN, or a yielder alone on the queue (yield is a
                # no-op then: it polls like a spinner)
                run_for = slice_us
            if task.spin_deadline is not None:
                run_for = min(run_for, max(1, task.spin_deadline - self.engine.now))
            return run_for
        rate = self._rate_at_dispatch
        need = task.migration_debt_us + task.work_remaining / rate
        return min(slice_us, math.ceil(need - 1e-9))

    def _on_core_event(self, gen: int) -> None:
        """Slice expiry, compute completion or yield expiry on this core.

        The ``native`` engine backend runs a C twin of this method and
        of the chain it calls -- :meth:`_charge_current`,
        :meth:`_redispatch`, :meth:`_put_back_current`,
        :meth:`_dispatch_next`, :meth:`_start`, :meth:`effective_rate`,
        :meth:`_run_duration` and ``Engine.schedule`` -- with the same
        mutations in the same order
        (``repro/sim/backends/_native/engine_core.c``).  Edit the two
        together: the golden digests and the generative heap-vs-native
        check in the test suite catch a miss.
        """
        if gen != self._gen or self.current is None:
            return  # superseded
        task = self.current
        self._charge_current()
        now = self.engine.now
        if task.waiting_on is not None:
            if task.spin_deadline is not None and now >= task.spin_deadline:
                # KMP_BLOCKTIME expired: the waiter goes to sleep.
                barrier = task.waiting_on
                assert barrier is not None
                self.current = None
                self._load_epoch[0] += 1
                self._mem_note_off(task)
                task.last_descheduled_at = now
                task.last_core = self.cid
                barrier.spin_timeout(task, now)
                self.system.note_residency(task)
                self._dispatch_next()
                return
            if task.wait_mode is WAIT_YIELD:
                # sched_yield: move past the rightmost task and requeue.
                task.vruntime = (
                    max(task.vruntime, self.rq.max_vruntime()) + self.params.yield_penalty
                )
            self._redispatch(task)
            return
        if task.work_remaining <= _WORK_EPS and task.migration_debt_us <= _WORK_EPS:
            task.work_remaining = 0.0
            task.needs_advance = True
        self._redispatch(task)

    def _redispatch(self, task: Task) -> None:
        """Slice expiry with ``task`` already charged: pick next runner.

        Fast path: when ``task`` has the core to itself (empty queue,
        not throttled, still has on-CPU work or a spin/yield wait), the
        requeue/pop cycle is a guaranteed identity -- push and pop_min
        of the lone entry restore the queue and cannot change
        ``min_vruntime`` beyond what :meth:`_charge_current`'s
        ``note_current_vruntime`` already did, and the mem-index
        remove+insort of the same ``(cid, intensity)`` pair rebuilds the
        same list -- so the dispatch restarts in place.  Every counter
        the slow path touches (context switches, dispatches, the
        rate-at-dispatch resample, the engine event) is replicated,
        keeping stats and digests bit-identical.
        """
        if (
            self.rq.count == 0
            and not task.throttled
            and task.state is TASK_RUNNING
            and (
                task.waiting_on is not None
                or (
                    not task.needs_advance
                    and (
                        task.work_remaining > _WORK_EPS
                        or task.migration_debt_us > _WORK_EPS
                    )
                )
            )
        ):
            now = self.engine.now
            task.last_descheduled_at = now
            task.last_core = self.cid
            self.stats.context_switches += 1
            self.stats.dispatches += 1
            self._rate_at_dispatch = self.effective_rate(task)
            run_for = self._run_duration(task)
            self._gen += 1
            self._event = self.engine.schedule(
                run_for if run_for > 1 else 1,
                self._on_core_event,
                self._event_label,
                self._gen,
            )
            if self._smt_active:
                self._notify_sibling_rate_change()
            return
        self._put_back_current()
        self._dispatch_next()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def effective_rate(self, task: Task) -> float:
        """Work retired per wall microsecond for ``task`` on this core.

        Memory-bandwidth contention is sampled at dispatch time (a
        quasi-static approximation: a co-runner arriving mid-slice does
        not retroactively slow this slice; slices are ms-scale so the
        error is small, and the approximation is noted in DESIGN.md).
        """
        rate = self._clock_factor
        if self._smt_active:
            sib = self.sibling()
            if sib is not None and sib.current is not None:
                rate *= self._smt_derate
        home = task.home_node
        if self._numa and home is not None and home != self._numa_node:
            rate /= self._numa_remote_slowdown
        if self._mem_track and task.mem_intensity > 0.0:
            # Maintained scope index instead of an all-core sweep.  The
            # index holds only positive intensities, sorted by cid, so
            # this sum adds the same floats in the same order as the old
            # core-order sweep (zeros add exactly), bit-identically.
            co = 0.0
            my_cid = self.cid
            for cid, intensity in self._mem_busy:
                if cid != my_cid:
                    co += intensity
            rate /= 1.0 + task.mem_intensity * self._mem_alpha * co
        return rate

    def _mem_note_on(self, task: Task) -> None:
        """The core started running ``task``: join the contention scope."""
        if self._mem_track and task.mem_intensity > 0.0:
            insort(self._mem_busy, (self.cid, task.mem_intensity))

    def _mem_note_off(self, task: Task) -> None:
        """``task`` (the previous ``current``) left the core."""
        if self._mem_track and task.mem_intensity > 0.0:
            # one entry per cid, and intensities are positive, so the
            # insertion point of (cid, 0.0) is exactly our entry
            del self._mem_busy[bisect_left(self._mem_busy, (self.cid, 0.0))]

    def _should_preempt(self, woken: Task) -> bool:
        cur = self.current
        if cur is None:
            return True
        # charge so the comparison uses the current task's live vruntime
        self._charge_current()
        return woken.vruntime + self.params.wakeup_granularity < cur.vruntime

    def _go_idle(self) -> None:
        """Run idle-balance hooks; the queue may be refilled by a pull."""
        # the hooks below read loads mid-dispatch, after pops/parks that
        # the enclosing _dispatch_next only bumps for in its finally --
        # refresh the epoch here so no memoized balance pass can replay
        self._load_epoch[0] += 1
        self.idle_since = self.engine.now
        self.stats.idle_balance_calls += 1
        for cb in list(self.idle_callbacks):
            cb(self)
            if self.rq.count > 0:
                break
        if self.rq.count == 0:
            self._notify_sibling_rate_change()

    def _cancel_event(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._gen += 1

    def _notify_sibling_rate_change(self) -> None:
        """SMT siblings' execution rates depend on our occupancy."""
        if not self._smt_active or self._smt_derate >= 1.0:
            return
        sib = self.sibling()
        if sib is None or sib.current is None or sib._in_resched:
            return
        # Only interrupt the sibling if its execution rate actually
        # changed; unconditional rescheds would ping-pong forever.
        if sib.effective_rate(sib.current) != sib._rate_at_dispatch:
            sib.resched()

    def __repr__(self) -> str:
        cur = self.current.name if self.current else "idle"
        return f"<Core {self.cid} running={cur} queued={len(self.rq)}>"
