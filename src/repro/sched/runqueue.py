"""Run queues: CFS (vruntime-ordered) and O(1)-style round robin.

``CfsRunQueue`` stands in for the kernel's red-black tree of schedulable
entities.  A binary heap with lazy deletion gives the same O(log n)
pick-next/insert complexity; arbitrary removal (needed constantly by
the balancers) marks entries dead and ignores them on pop.

``RoundRobinQueue`` models the pre-CFS O(1) scheduler's active/expired
arrays, which is the substrate the DWRR prototype (Linux 2.6.22) was
built on -- the paper could only evaluate DWRR on the 2.6.22 O(1)
kernel because the 2.6.24 CFS port did not boot.

Aggregate maintenance
---------------------
``total_weight`` and ``max_vruntime`` are *maintained* on push/pop/
remove instead of recomputed by scanning the queue: ``slice_for`` needs
the total weight on every dispatch and the ``sched_yield`` path needs
the rightmost vruntime on every yield, so recomputation made both
O(queue length) per event.  Weights are integers, so the running total
is exact; the maximum is served by a second lazy-deletion heap keyed by
negated vruntime (vruntime is immutable while a task is queued --
``requeue`` re-inserts -- so a heap entry can never go stale in value,
only in liveness).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Optional

from repro.sched.task import Task

__all__ = ["CfsRunQueue", "O1RunQueue", "RoundRobinQueue"]

_entry_counter = itertools.count()

#: rebuild a lazy-deletion heap when stale entries outnumber live ones
#: by this factor (plus a small constant so tiny queues never compact)
_COMPACT_FACTOR = 4
_COMPACT_MIN = 64


class CfsRunQueue:
    """Priority queue of runnable (not running) tasks, keyed by vruntime.

    Also maintains ``min_vruntime``, the monotonically increasing
    baseline CFS uses to normalize sleepers and migrating tasks.  The
    native engine core reads every field at a fixed slot offset.
    """

    __slots__ = (
        "_heap", "_live", "_max_heap", "_total_weight", "count", "min_vruntime",
    )

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Task]] = []
        self._live: dict[int, tuple[float, int, Task]] = {}  # tid -> entry
        #: max-side lazy heap: (-vruntime, -counter, min-heap entry)
        self._max_heap: list[tuple[float, int, tuple[float, int, Task]]] = []
        self._total_weight: int = 0
        #: queue length as a plain attribute: hot readers (dispatch,
        #: balancer sweeps) skip the __len__ call frame
        self.count: int = 0
        self.min_vruntime: float = 0.0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    def __contains__(self, task: Task) -> bool:
        return task.tid in self._live

    def tasks(self) -> list[Task]:
        """Snapshot of queued tasks (unordered)."""
        return [e[2] for e in self._live.values()]

    def total_weight(self) -> int:
        """Summed weight of queued tasks (maintained, O(1))."""
        return self._total_weight

    # ------------------------------------------------------------------
    def push(self, task: Task) -> None:
        if task.tid in self._live:
            raise ValueError(f"{task} already queued")
        # the counter only tie-breaks equal vruntimes *within* one heap;
        # absolute values never leave the process, so workers drifting
        # apart cannot change any schedule
        entry = (task.vruntime, next(_entry_counter), task)  # sim-lint: ignore[FLOW004]
        self._live[task.tid] = entry
        heapq.heappush(self._heap, entry)
        heapq.heappush(self._max_heap, (-entry[0], -entry[1], entry))
        self._total_weight += task.weight
        self.count += 1
        # the max-side heap sheds stale entries only when max_vruntime()
        # peeks past them, so a queue that never serves a yield would
        # keep one dead entry per requeue for the whole run; compact
        # once they dominate (pop order is by unique keys, so this
        # changes no schedule)
        if len(self._max_heap) > _COMPACT_FACTOR * self.count + _COMPACT_MIN:
            self._compact()

    def pop_min(self) -> Optional[Task]:
        """Remove and return the leftmost (smallest vruntime) task."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            task = entry[2]
            if self._live.get(task.tid) is entry:
                del self._live[task.tid]
                self._total_weight -= task.weight
                self.count -= 1
                if task.vruntime > self.min_vruntime:  # _advance_min, inlined
                    self.min_vruntime = task.vruntime
                return task
        return None

    def peek_min(self) -> Optional[Task]:
        while self._heap:
            entry = self._heap[0]
            task = entry[2]
            if self._live.get(task.tid) is entry:
                return task
            heapq.heappop(self._heap)
        return None

    def remove(self, task: Task) -> None:
        """Remove an arbitrary task (migration/sleep).  O(1) amortized."""
        entry = self._live.pop(task.tid, None)
        if entry is None:
            raise ValueError(f"{task} not queued")
        self._total_weight -= task.weight
        self.count -= 1
        # stale heap entries are skipped lazily by pop_min/peek_min/
        # max_vruntime; compact when they dominate so removal-heavy
        # balancer churn cannot grow the heaps without bound
        if len(self._heap) > _COMPACT_FACTOR * len(self._live) + _COMPACT_MIN:
            self._compact()

    def max_vruntime(self) -> float:
        """Largest vruntime among queued tasks (for sched_yield).

        Served from the max-side lazy heap: stale top entries are
        discarded until a live one surfaces, so the amortized cost is
        O(log n) against the O(n) scan this replaces.
        """
        heap = self._max_heap
        live = self._live
        while heap:
            entry = heap[0][2]
            if live.get(entry[2].tid) is entry:
                return entry[0]
            heapq.heappop(heap)
        return self.min_vruntime

    def requeue(self, task: Task) -> None:
        """Re-insert after a vruntime change (yield, slice expiry)."""
        if task.tid in self._live:
            self.remove(task)
        self.push(task)

    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop stale lazy-deletion entries and re-heapify in place."""
        live = self._live
        self._heap = [e for e in self._heap if live.get(e[2].tid) is e]
        heapq.heapify(self._heap)
        self._max_heap = [m for m in self._max_heap if live.get(m[2][2].tid) is m[2]]
        heapq.heapify(self._max_heap)

    def _advance_min(self, candidate: float) -> None:
        """min_vruntime never decreases (CFS invariant)."""
        if candidate > self.min_vruntime:
            self.min_vruntime = candidate

    def note_current_vruntime(self, vruntime: float) -> None:
        """Fold the running task's vruntime into min_vruntime tracking.

        CFS updates ``min_vruntime`` from min(leftmost, current); since
        the current task usually has the smallest vruntime this is the
        main driver of the baseline.  Runs on every charge, so the
        peek-min scan is inlined (entry[0] is the queued task's
        vruntime: it is immutable while queued).
        """
        floor = vruntime
        heap = self._heap
        live = self._live
        while heap:
            entry = heap[0]
            if live.get(entry[2].tid) is entry:
                if entry[0] < floor:
                    floor = entry[0]
                break
            heapq.heappop(heap)
        if floor > self.min_vruntime:
            self.min_vruntime = floor


class O1RunQueue:
    """O(1)-scheduler facade with the CFS run-queue interface.

    Lets :class:`~repro.sched.core.CoreSim` run with pre-CFS semantics
    (the Linux 2.6.22 kernel the DWRR prototype was built on): strict
    FIFO round robin over an active/expired array pair, no virtual
    runtime.  ``pop_min`` pops the active head, swapping in the expired
    array when active drains; vruntime-related methods are no-ops so
    the CFS-oriented call sites stay untouched.
    """

    def __init__(self) -> None:
        self._rr = RoundRobinQueue()
        self._total_weight: int = 0
        #: queue length as a plain attribute (see CfsRunQueue.count)
        self.count: int = 0
        self.min_vruntime: float = 0.0

    def __len__(self) -> int:
        return self.count

    def __contains__(self, task: Task) -> bool:
        return task in self._rr

    def tasks(self) -> list[Task]:
        return self._rr.tasks()

    def total_weight(self) -> int:
        """Summed weight of queued tasks (maintained, O(1))."""
        return self._total_weight

    def push(self, task: Task) -> None:
        if task in self._rr:
            raise ValueError(f"{task} already queued")
        self._rr.push_active(task)
        self._total_weight += task.weight
        self.count += 1

    def pop_min(self) -> Optional[Task]:
        t = self._rr.pop_active()
        if t is None and self._rr.expired:
            self._rr.swap()
            t = self._rr.pop_active()
        if t is not None:
            self._total_weight -= t.weight
            self.count -= 1
        return t

    def peek_min(self) -> Optional[Task]:
        if self._rr.active:
            return self._rr.active[0]
        if self._rr.expired:
            return self._rr.expired[0]
        return None

    def remove(self, task: Task) -> None:
        self._rr.remove(task)
        self._total_weight -= task.weight
        self.count -= 1

    def max_vruntime(self) -> float:
        return self.min_vruntime

    def requeue(self, task: Task) -> None:
        self.remove(task)
        self.push(task)

    def note_current_vruntime(self, vruntime: float) -> None:
        """vruntime is meaningless under O(1); ignore it."""


class RoundRobinQueue:
    """O(1)-scheduler-style active/expired FIFO pair.

    Tasks run in FIFO order from the *active* queue; a task that
    exhausts its (round) slice moves to *expired*.  When active drains
    the arrays swap.  Used directly by :class:`O1RunQueue` and, at the
    balancer level, mirrored by DWRR's round bookkeeping -- see
    :class:`repro.balance.dwrr.DwrrBalancer`.

    A tid -> deque membership map (mirroring ``CfsRunQueue``'s tid map)
    makes ``__contains__`` O(1) and lets :meth:`remove` go straight to
    the holding deque -- absence raises without scanning either array,
    and presence costs one ``deque.remove`` instead of up to two.  The
    map stores the deque *object*, so :meth:`swap` (which only
    exchanges the ``active``/``expired`` attribute bindings) needs no
    fixup.
    """

    def __init__(self) -> None:
        self.active: deque[Task] = deque()
        self.expired: deque[Task] = deque()
        self._where: dict[int, deque[Task]] = {}  # tid -> holding deque

    def __len__(self) -> int:
        return len(self.active) + len(self.expired)

    def __contains__(self, task: Task) -> bool:
        return task.tid in self._where

    def tasks(self) -> list[Task]:
        return list(self.active) + list(self.expired)

    def push_active(self, task: Task) -> None:
        self.active.append(task)
        self._where[task.tid] = self.active

    def push_expired(self, task: Task) -> None:
        self.expired.append(task)
        self._where[task.tid] = self.expired

    def pop_active(self) -> Optional[Task]:
        if not self.active:
            return None
        task = self.active.popleft()
        del self._where[task.tid]
        return task

    def remove(self, task: Task) -> None:
        dq = self._where.pop(task.tid, None)
        if dq is None:
            raise ValueError(f"{task} not queued")
        dq.remove(task)

    def swap(self) -> None:
        """Swap active and expired arrays (round advance)."""
        self.active, self.expired = self.expired, self.active
