"""Distributed Weighted Round-Robin (DWRR) fair scheduling.

Models the kernel-level mechanism of Li et al. the paper compares
against (Section 2): scheduling proceeds in *rounds*; each task may run
at most its *round slice* (100 ms in the 2.6.22 prototype the paper
could boot) per round, after which it moves to the expired queue.  Each
CPU carries a round number; "to achieve global fairness ... DWRR
ensures that during execution this number for each CPU differs by at
most one system-wide.  When a CPU finishes a round it will perform
round balancing by stealing threads from the active/expired queues of
other CPUs, depending on their round number."

Properties the paper highlights, preserved by this model:

* global fairness: over any window of a few rounds, every task of the
  parallel application makes equal progress, so DWRR tracks speed
  balancing closely at moderate core counts (Figure 3, <= 8 cores);
* no migration history and potentially "a large number of threads"
  migrated per round: cores finishing their rounds early repeatedly
  steal still-running-round tasks from others, paying migration costs
  that flatten the speedup curve at high core counts (speedup ~12 at
  16-on-16 in Figure 3);
* application-unaware: all tasks in the system are balanced uniformly;
* no NUMA awareness ("to our knowledge, DWRR has not been tuned for
  NUMA"): steals ignore node boundaries, stranding memory.

Implementation notes: round-slice exhaustion is detected at charge
granularity (a CFS slice), and an exhausted task is *throttled* --
parked off the run queue -- until its core advances its round, which
reproduces the active/expired array semantics on top of the CFS core
model (the 2.6.22 prototype sat on the O(1) scheduler; the paper could
not boot the CFS port).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.balance.base import KernelBalancer
from repro.sched.task import TASK_RUNNABLE, Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.core import CoreSim
    from repro.system import System

__all__ = ["DwrrBalancer"]


# hoisted sort key: no closure allocated per round balance (KERN005)
def _by_tid(task: Task) -> int:
    return task.tid


class DwrrBalancer(KernelBalancer):
    """Round-based global fairness with round balancing."""

    name = "dwrr"

    def __init__(
        self,
        round_slice_us: int = 100_000,
        steal_batch: int = 2,
        idle_tick_us: int = 10_000,
    ):
        super().__init__()
        self.round_slice_us = round_slice_us
        #: max tasks stolen per round-balance attempt ("the algorithm
        #: might migrate a large number of threads")
        self.steal_batch = steal_batch
        #: period of the idle-core round-balancing check (an idle CPU
        #: in DWRR keeps trying to find same-round work to steal)
        self.idle_tick_us = idle_tick_us
        #: timer-tick granularity of round-slice enforcement (skews
        #: effective slices and desynchronizes rounds across cores)
        self.slice_jitter_us = 10_000
        self.round: dict[int, int] = {}
        self.stats_round_advances = 0
        self.stats_round_waits = 0
        self.stats_steals = 0
        #: cid -> (callback, label) reused across tick reschedules
        self._tick_cb: dict[int, tuple[Callable[[], None], str]] = {}

    # ------------------------------------------------------------------
    def attach(self, system: "System") -> None:
        super().attach(system)
        for core in system.cores:
            self.round[core.cid] = 0
            core.idle_callbacks.append(self._round_balance)
            # reusable callback/label pair: the tick re-arms itself every
            # 10 ms per core, so per-tick lambda allocations add up
            label = f"dwrr.tick.{core.cid}"
            callback = (lambda c=core: self._idle_tick(c))
            self._tick_cb[core.cid] = (callback, label)
            offset = system.rng.jitter_us("dwrr.tick", self.idle_tick_us)
            system.engine.schedule(self.idle_tick_us + offset, callback, label)

    def _idle_tick(self, core: "CoreSim") -> None:
        """Idle CPUs keep attempting round balancing."""
        assert self.system is not None
        if core.is_idle:
            self._round_balance(core)
        callback, label = self._tick_cb[core.cid]
        self.system.engine.schedule(self.idle_tick_us, callback, label)

    # ------------------------------------------------------------------
    def place_new_task(self, task: Task, snapshot: list[int]) -> int:
        cid = super().place_new_task(task, snapshot)
        task.round_slice_remaining = self._fresh_round_slice()
        task.round_number = self.round.get(cid, 0)
        return cid

    def place_woken(self, task: Task, prev: int) -> int:
        # a waking sleeper joins the current round of its core afresh
        if task.round_slice_remaining <= 0:
            task.round_slice_remaining = self._fresh_round_slice()
        task.throttled = False
        task.round_number = self.round.get(prev, 0)
        return prev

    def on_charge(self, core: "CoreSim", task: Task, dt: int) -> None:
        """Round-slice accounting; exhausted tasks get throttled."""
        task.round_slice_remaining -= dt
        if task.round_slice_remaining <= 0 and not task.throttled:
            task.throttled = True
            # the core parks it at the next put-back (end of this charge's
            # resched); nothing else to do here

    # ------------------------------------------------------------------
    def _donor_key(self, core: "CoreSim") -> tuple[int, int]:
        # bound-method sort key: reads self.round, so it cannot be
        # hoisted to module level like _by_tid
        return (self.round[core.cid], -core.nr_running)

    def _round_balance(self, core: "CoreSim") -> None:
        """The local core ran out of unthrottled tasks.

        Try to steal tasks still inside the current round from other
        CPUs (round balancing); only when no such task is stealable
        does the local round advance and the expired tasks return.
        """
        assert self.system is not None
        my_round = self.round[core.cid]
        stolen = 0
        # steal from CPUs whose round is behind or equal and that still
        # have queued tasks inside their round
        donors = sorted(
            (
                c
                for c in self.system.cores
                if c is not core and self.round[c.cid] <= my_round and c.nr_running >= 2
            ),
            key=self._donor_key,
        )
        for donor in donors:
            for t in sorted(donor.rq.tasks(), key=_by_tid):
                if stolen >= self.steal_batch:
                    break
                if (
                    t.state is TASK_RUNNABLE
                    and not t.throttled
                    and t.can_run_on(core.cid)
                ):
                    if self.system.migrate(t, core.cid, reason="dwrr.steal"):
                        self.stats_steals += 1
                        stolen += 1
            if stolen >= self.steal_batch:
                break
        if stolen:
            return
        # No stealable work in this round: advance the local round --
        # but only within DWRR's global fairness constraint ("this
        # number for each CPU differs by at most one system-wide").  A
        # core ahead of a busy laggard must idle until the laggard
        # catches up: this round-synchronization is what degrades DWRR
        # when cores drift (e.g. the paper's 16-on-16 dip).
        if core.throttled:
            laggards = [
                c
                for c in self.system.cores
                if c is not core
                and (c.nr_running > 0 or c.throttled)
                and self.round[c.cid] < my_round
            ]
            if laggards:
                self.stats_round_waits += 1
                return  # wait; the idle tick retries shortly
            self.round[core.cid] = my_round + 1
            self.stats_round_advances += 1
            parked, core.throttled = core.throttled, []
            for t in parked:
                t.throttled = False
                t.round_slice_remaining = self._fresh_round_slice()
                t.round_number = self.round[core.cid]
                core.enqueue(t)

    def _fresh_round_slice(self) -> int:
        """A new round slice, with timer-tick accounting jitter.

        The kernel enforces round slices at timer-tick granularity, so
        effective slices skew by up to a tick; this is what desynchronizes
        cores' rounds over time (and with the strict round constraint
        above, costs idle waits).
        """
        assert self.system is not None
        return self.round_slice_us + self.system.rng.jitter_us(
            "dwrr.slice", self.slice_jitter_us
        )
