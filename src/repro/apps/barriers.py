"""Barrier synchronization with the wait behaviours the paper studies.

The interaction between a parallel runtime and OS load balancing "is
largely accomplished through the implementation of synchronization
operations" (Section 3).  What matters to a queue-length balancer is
whether a waiter stays on the run queue:

* a ``sched_yield`` loop (default UPC and MPI runtimes) keeps the
  waiter runnable -- "the OS level load balancer counts it towards the
  queue length";
* ``sleep`` removes it -- "which enables the OS level load balancer to
  pull tasks onto the CPUs where threads are sleeping";
* pure polling (``KMP_BLOCKTIME=infinite``) burns the core outright;
* Intel OpenMP's default is hybrid: spin for ``KMP_BLOCKTIME``
  (200 ms), then sleep.

:class:`WaitPolicy` captures these four shapes; :class:`Barrier`
implements a reusable (generational) barrier over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sched.task import (
    TASK_RUNNING,
    TASK_SLEEPING,
    WAIT_SLEEP,
    WAIT_SPIN,
    WAIT_YIELD,
    Task,
    WaitMode,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System

__all__ = ["WaitPolicy", "Barrier"]


@dataclass(frozen=True)
class WaitPolicy:
    """How threads wait inside synchronization operations.

    ``blocktime_us`` turns SPIN/YIELD into the hybrid Intel OpenMP
    behaviour: busy-wait for that long, then go to sleep.  ``None``
    means wait that way forever (``KMP_BLOCKTIME=infinite`` for SPIN).

    ``wake_latency_us`` models the scheduling latency of waking a
    sleeping waiter (syscall + wakeup path); yield/spin waiters resume
    without it, which is the "faster synchronization" the paper
    attributes to ``sched_yield`` implementations under even load.
    """

    mode: WaitMode = WaitMode.YIELD
    blocktime_us: Optional[int] = None
    wake_latency_us: int = 50

    # -- presets matching the runtimes in the paper --------------------
    @staticmethod
    def upc_default() -> "WaitPolicy":
        """Berkeley UPC barrier: ``sched_yield`` loop when oversubscribed."""
        return WaitPolicy(mode=WAIT_YIELD)

    @staticmethod
    def mpi_default() -> "WaitPolicy":
        """MPI runtimes evaluated by the paper also call ``sched_yield``."""
        return WaitPolicy(mode=WAIT_YIELD)

    @staticmethod
    def upc_sleep() -> "WaitPolicy":
        """The paper's modified UPC runtime calling ``usleep(1)``."""
        return WaitPolicy(mode=WAIT_SLEEP)

    @staticmethod
    def omp_default(blocktime_us: int = 200_000) -> "WaitPolicy":
        """Intel OpenMP: spin for KMP_BLOCKTIME (200 ms), then sleep."""
        return WaitPolicy(mode=WAIT_SPIN, blocktime_us=blocktime_us)

    @staticmethod
    def omp_infinite() -> "WaitPolicy":
        """``KMP_BLOCKTIME=infinite``: poll continuously."""
        return WaitPolicy(mode=WAIT_SPIN)

    @property
    def label(self) -> str:
        if self.mode is WAIT_SLEEP:
            return "sleep"
        if self.blocktime_us is not None:
            return f"{self.mode.value}+blocktime{self.blocktime_us // 1000}ms"
        return self.mode.value


class Barrier:
    """A reusable SPMD barrier.

    ``arrive`` is called by a core's dispatch loop when a task reaches
    the barrier.  The last arriver releases the generation: sleeping
    waiters are woken (after ``wake_latency_us``), spinning/yielding
    waiters are flipped back to their program at their next dispatch
    (immediately, if currently running).
    """

    def __init__(
        self,
        system: "System",
        parties: int,
        policy: Optional[WaitPolicy] = None,
        name: str = "barrier",
    ):
        if parties < 1:
            raise ValueError("a barrier needs at least one party")
        self.system = system
        self.parties = parties
        self.policy = policy or WaitPolicy()
        self.name = name
        self.generation = 0
        self._waiters: list[Task] = []
        # -- statistics ------------------------------------------------
        self.releases = 0
        self.total_wait_us = 0  # summed thread-wait time across generations
        self._arrival_times: list[int] = []

    # ------------------------------------------------------------------
    def arrive(self, task: Task, now: int) -> bool:
        """Register arrival.  Returns True if the caller may proceed.

        When False is returned the task has been put into its waiting
        state (spin/yield on the queue, or sleeping off it); the core's
        dispatch loop reacts accordingly.
        """
        if len(self._waiters) + 1 == self.parties:
            self._release(now)
            return True
        self._waiters.append(task)
        self._arrival_times.append(now)
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
        """BLOCKTIME expired: convert a busy waiter into a sleeper.

        The core has already descheduled the task; it stays in the
        waiter list and will be woken like any sleeper on release.
        """
        assert task.waiting_on is self and task in self._waiters
        task.wait_mode = WAIT_SLEEP
        task.spin_deadline = None
        task.state = TASK_SLEEPING
        task.cur_core = None

    # ------------------------------------------------------------------
    def _release(self, now: int) -> None:
        """Open the barrier: resume every waiter."""
        waiters = self._waiters
        self._waiters = []
        self.generation += 1
        self.releases += 1
        self.total_wait_us += sum(now - t for t in self._arrival_times)
        self._arrival_times = []
        for task in waiters:
            was_sleeping = task.state is TASK_SLEEPING
            if task.state is TASK_RUNNING:
                # charge the elapsed spin/yield time while the waiting
                # flags still mark it as synchronization overhead
                assert task.cur_core is not None
                self.system.cores[task.cur_core].charge_now()
            task.waiting_on = None
            task.wait_mode = None
            task.spin_deadline = None
            task.needs_advance = True
            if was_sleeping:
                self.system.wake(task, latency_us=self.policy.wake_latency_us)
            elif task.state is TASK_RUNNING:
                assert task.cur_core is not None
                self.system.cores[task.cur_core].notify_waiter_released(task)
            # RUNNABLE spinners/yielders advance at their next dispatch

    def __repr__(self) -> str:
        return (
            f"<Barrier {self.name} {len(self._waiters)}/{self.parties}"
            f" gen={self.generation} policy={self.policy.label}>"
        )
