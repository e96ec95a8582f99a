"""FreeBSD 7.2 ULE scheduler migration model.

From Section 2 of the paper: ULE uses per-core queues with "a
combination of pull and push task migration mechanisms".  The push
mechanism "runs twice a second and moves threads from the highest
loaded queue to the lightest loaded queue"; by default it "will not
migrate threads when a static balance is not attainable" (e.g. 3 tasks
on 2 CPUs), though ``kern.sched.steal_thresh=1`` theoretically lowers
the threshold.  The paper "explored all variations of the kern.sched
settings, without being able to observe the benefits of this mechanism
for parallel application performance" -- and this model shows why:
pushing always selects a queued (non-running) thread, so the *same*
victim bounces between queues ("hot-potato" in the paper's terms)
while per-thread progress stays as imbalanced as before.  Speed
balancing's least-migrated victim choice is the direct answer to this.

Pull (idle steal) is modeled like Linux new-idle balancing without the
cache-hot resistance (ULE's steal is unconditional on load threshold).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.balance.base import KernelBalancer
from repro.sched.task import TASK_RUNNABLE, Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.core import CoreSim
    from repro.system import System

__all__ = ["UleBalancer"]


# module-level sort/extremum keys: hoisted out of the balancing hot
# path so no closure is allocated per push/steal (KERN005)
def _by_nr_running(core: "CoreSim") -> int:
    return core.nr_running


def _by_tid(task: Task) -> int:
    return task.tid


def _hot_potato_key(task: Task) -> tuple[int, int]:
    # most-recently migrated first: deterministic hot-potato
    return (-task.last_migrated_at, -task.tid)


class UleBalancer(KernelBalancer):
    """Push twice a second + idle steal.

    Parameters
    ----------
    steal_thresh:
        Minimum queue-length difference that triggers a push.  The
        FreeBSD default effectively requires an improvable imbalance
        (difference of 2); setting 1 mimics the paper's tuning attempt.
    push_interval_us:
        Period of the push task ("runs twice a second").
    """

    name = "ule"

    def __init__(
        self,
        steal_thresh: int = 2,
        push_interval_us: int = 500_000,
        idle_tick_us: int = 10_000,
    ):
        super().__init__()
        if steal_thresh < 1:
            raise ValueError("steal_thresh must be >= 1")
        self.steal_thresh = steal_thresh
        self.push_interval_us = push_interval_us
        #: FreeBSD's idle thread loops looking for work to steal; a core
        #: idle from t=0 (which never fires the idle-transition hook)
        #: polls at this period instead.
        self.idle_tick_us = idle_tick_us
        self.stats_pushes = 0
        self.stats_steals = 0
        #: cid -> (callback, label) reused across tick reschedules
        self._tick_cb: dict[int, tuple[Callable[[], None], str]] = {}

    # ------------------------------------------------------------------
    def attach(self, system: "System") -> None:
        super().attach(system)
        for core in system.cores:
            core.idle_callbacks.append(self._idle_steal)
            # reusable callback/label pair: the tick re-arms itself every
            # 10 ms per core, so per-tick lambda allocations add up
            label = f"ule.tick.{core.cid}"
            callback = (lambda c=core: self._idle_tick(c))
            self._tick_cb[core.cid] = (callback, label)
            offset = system.rng.jitter_us("ule.tick", self.idle_tick_us)
            system.engine.schedule(self.idle_tick_us + offset, callback, label)
        system.engine.schedule(self.push_interval_us, self._push, "ule.push")

    def _idle_tick(self, core: "CoreSim") -> None:
        assert self.system is not None
        if core.is_idle:
            self._idle_steal(core)
        callback, label = self._tick_cb[core.cid]
        self.system.engine.schedule(self.idle_tick_us, callback, label)

    # ------------------------------------------------------------------
    def place_new_task(self, task, snapshot: list[int]) -> int:
        """FreeBSD fork placement reads *live* queue state.

        ULE's ``sched_pickcpu`` runs under the target queue's lock, so a
        burst of simultaneous forks does not race on stale idleness the
        way the paper's footnote describes for Linux -- which is why
        the paper measures ULE tracking the statically balanced case.
        """
        assert self.system is not None
        live = [c.nr_running for c in self.system.cores]
        allowed = self.system._allowed(task)
        best = min(live[c] for c in allowed)
        candidates = [c for c in allowed if live[c] == best]
        if len(candidates) == 1:
            return candidates[0]
        return self.system.rng.choice("ule.place", candidates)

    # ------------------------------------------------------------------
    def _push(self) -> None:
        """Move one thread from the longest to the shortest queue."""
        assert self.system is not None
        cores = self.system.cores
        busiest = max(cores, key=_by_nr_running)
        lightest = min(cores, key=_by_nr_running)
        if busiest.nr_running - lightest.nr_running >= self.steal_thresh:
            victim = self._pick_victim(busiest, lightest.cid)
            if victim is not None and self.system.migrate(
                victim, lightest.cid, reason="ule.push"
            ):
                self.stats_pushes += 1
        self.system.engine.schedule(self.push_interval_us, self._push, "ule.push")

    def _pick_victim(self, src: "CoreSim", dst_cid: int) -> Optional[Task]:
        """ULE pushes a queued thread: the last (coldest) in the queue.

        Crucially there is no migration history, so under a persistent
        1-thread imbalance the same thread is selected every period.
        """
        candidates = [
            t
            for t in src.rq.tasks()
            if t.state is TASK_RUNNABLE and t.can_run_on(dst_cid)
        ]
        if not candidates:
            return None
        candidates.sort(key=_hot_potato_key)
        return candidates[0]

    def _idle_steal(self, core: "CoreSim") -> None:
        """An idle core steals one thread from the most loaded queue."""
        assert self.system is not None
        busiest = max(
            (c for c in self.system.cores if c is not core),
            key=_by_nr_running,
            default=None,
        )
        if busiest is None or busiest.nr_running < 2:
            return
        for t in sorted(busiest.rq.tasks(), key=_by_tid):
            if t.state is TASK_RUNNABLE and t.can_run_on(core.cid):
                if self.system.migrate(t, core.cid, reason="ule.steal"):
                    self.stats_steals += 1
                    return
