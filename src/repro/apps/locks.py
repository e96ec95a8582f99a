"""Mutual-exclusion locks with the paper's wait behaviours.

Section 3: "The interaction between an application or programming
model and the underlying OS load balancing is largely accomplished
through the implementation of synchronization operations: locks,
barriers or collectives."  Barriers live in
:mod:`repro.apps.barriers`; this module provides the lock, with the
same spin / yield / sleep waiting split:

* spin- and yield-waiters stay on the run queue (counted as load by
  queue-length balancing);
* sleep-waiters block and are woken FIFO when the holder releases.

:class:`LockedCounterApp` is a ready-made workload: N threads
alternating private compute with a short critical section -- the
server-style "synchronization for mutual exclusion on small shared
data items" the paper contrasts with SPMD barriers.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.apps.barriers import WaitPolicy
from repro.sched.task import TASK_RUNNING, TASK_SLEEPING, WAIT_SLEEP, Action, Program, Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System

__all__ = ["Mutex", "LockedCounterApp"]


class Mutex:
    """A mutual-exclusion lock over simulated tasks.

    Usage from a :class:`~repro.sched.task.Program`: issue
    ``Action.wait(mutex)`` to acquire (the core's dispatch loop speaks
    the barrier protocol) and call :meth:`release` when the critical
    section's compute completes, the way :class:`_ReleasingProgram`
    does.

    Implementation notes: this object deliberately mirrors
    :class:`~repro.apps.barriers.Barrier`'s interface (``arrive`` /
    ``spin_timeout``) so the core dispatch loop needs no special
    casing; a task "arrives" to acquire, and release hands the lock to
    one waiter.
    """

    def __init__(self, system: "System", policy: Optional[WaitPolicy] = None,
                 name: str = "mutex"):
        self.system = system
        self.policy = policy or WaitPolicy()
        self.name = name
        self.holder: Optional[Task] = None
        self._waiters: deque[Task] = deque()
        # -- statistics --------------------------------------------------
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.total_wait_us = 0
        self._wait_since: dict[int, int] = {}

    # ------------------------------------------------------------------
    def arrive(self, task: Task, now: int) -> bool:
        """Attempt to acquire; True if the task may proceed (holds it)."""
        if self.holder is None:
            self.holder = task
            self.acquisitions += 1
            return True
        self.contended_acquisitions += 1
        self._waiters.append(task)
        self._wait_since[task.tid] = now
        task.waiting_on = self
        pol = self.policy
        if pol.mode is WAIT_SLEEP:
            task.wait_mode = WAIT_SLEEP
            task.state = TASK_SLEEPING
        else:
            task.wait_mode = pol.mode
            if pol.blocktime_us is not None:
                task.spin_deadline = now + pol.blocktime_us
        return False

    def spin_timeout(self, task: Task, now: int) -> None:
        """BLOCKTIME expired while waiting for the lock: sleep."""
        assert task.waiting_on is self
        task.wait_mode = WAIT_SLEEP
        task.spin_deadline = None
        task.state = TASK_SLEEPING
        task.cur_core = None

    def release(self, task: Task, now: int) -> None:
        """Release the lock; the oldest waiter acquires it."""
        if task is not self.holder:
            raise RuntimeError(f"{task} releasing {self.name} it does not hold")
        self.holder = None
        if not self._waiters:
            return
        nxt = self._waiters.popleft()
        self.total_wait_us += now - self._wait_since.pop(nxt.tid)
        self.holder = nxt
        self.acquisitions += 1
        was_sleeping = nxt.state is TASK_SLEEPING
        if nxt.state is TASK_RUNNING:
            assert nxt.cur_core is not None
            self.system.cores[nxt.cur_core].charge_now()
        nxt.waiting_on = None
        nxt.wait_mode = None
        nxt.spin_deadline = None
        nxt.needs_advance = True
        if was_sleeping:
            self.system.wake(nxt, latency_us=self.policy.wake_latency_us)
        elif nxt.state is TASK_RUNNING:
            assert nxt.cur_core is not None
            self.system.cores[nxt.cur_core].notify_waiter_released(nxt)
        # RUNNABLE busy-waiters proceed at their next dispatch

    def __repr__(self) -> str:
        h = self.holder.name if self.holder else "free"
        return f"<Mutex {self.name} holder={h} waiters={len(self._waiters)}>"


class LockedCounterApp:
    """N threads contending on one lock (server-style workload).

    Each thread runs ``iterations`` of: private compute, acquire the
    mutex, compute the critical section, release.  Release is driven by
    a program wrapper that watches for critical-section completion.
    """

    def __init__(
        self,
        system: "System",
        name: str = "locked",
        n_threads: int = 4,
        iterations: int = 10,
        private_work_us: int = 5_000,
        critical_work_us: int = 500,
        wait_policy: Optional[WaitPolicy] = None,
    ):
        if n_threads < 1 or iterations < 1:
            raise ValueError("need at least one thread and one iteration")
        self.system = system
        self.name = name
        self.n_threads = n_threads
        self.iterations = iterations
        self.private_work_us = private_work_us
        self.critical_work_us = critical_work_us
        self.mutex = Mutex(system, wait_policy, name=f"{name}.lock")
        self.tasks: list[Task] = []
        for rank in range(n_threads):
            program = _ReleasingProgram(self, rank)
            t = Task(program=program, name=f"{name}.t{rank}", app_id=name)
            self.tasks.append(t)
        self.spawned = False

    def spawn(self, at: int = 0, cores=None) -> None:
        if self.spawned:
            raise RuntimeError(f"{self.name} already spawned")
        self.spawned = True
        if cores is not None:
            allowed = frozenset(cores)
            for t in self.tasks:
                t.pin(allowed)
        self.system.spawn_burst(self.tasks, at=at)

    @property
    def done(self) -> bool:
        return all(t.finished_at is not None for t in self.tasks)

    @property
    def elapsed_us(self) -> int:
        if not self.done:
            raise RuntimeError(f"{self.name} unfinished")
        return max(t.finished_at for t in self.tasks) - min(
            t.started_at for t in self.tasks
        )

    def total_work_us(self) -> int:
        per = self.private_work_us + self.critical_work_us
        return self.n_threads * self.iterations * per


class _ReleasingProgram(Program):
    """Drives the compute/acquire/critical/release cycle."""

    def __init__(self, app: LockedCounterApp, rank: int):
        self.app = app
        self.rank = rank
        self.iteration = 0
        self._state = "compute"  # compute -> acquire -> critical -> (release)

    def next_action(self, task: Task, now: int) -> Action:
        app = self.app
        if self._state == "compute":
            if self.iteration >= app.iterations:
                return Action.exit()
            self._state = "acquire"
            return Action.compute(app.private_work_us)
        if self._state == "acquire":
            self._state = "critical"
            return Action.wait(app.mutex)
        if self._state == "critical":
            self._state = "release"
            return Action.compute(app.critical_work_us)
        # release: the critical section just completed
        app.mutex.release(task, now)
        self.iteration += 1
        if self.iteration >= app.iterations:
            return Action.exit()
        self._state = "acquire"
        return Action.compute(app.private_work_us)
