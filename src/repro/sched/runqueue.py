"""Run queues: CFS (vruntime-ordered) and O(1)-style round robin.

``CfsRunQueue`` stands in for the kernel's red-black tree of schedulable
entities.  It is one list of ``(vruntime, counter, task)`` entries kept
sorted by ``bisect.insort``, beside a ``tid -> entry`` map for
membership and arbitrary removal (needed constantly by the balancers).
The kernel's rbtree caches its leftmost and rightmost entities; here
they are the two ends of the list, so pick-next, the ``min_vruntime``
floor and ``sched_yield``'s rightmost vruntime are each one index.

``RoundRobinQueue`` models the pre-CFS O(1) scheduler's active/expired
arrays, which is the substrate the DWRR prototype (Linux 2.6.22) was
built on -- the paper could only evaluate DWRR on the 2.6.22 O(1)
kernel because the 2.6.24 CFS port did not boot.

Aggregate maintenance
---------------------
``total_weight`` and ``count`` are *maintained* on push/pop/remove
instead of recomputed by scanning the queue: ``slice_for`` needs the
total weight on every dispatch.  Weights are integers, so the running
total is exact.  An entry's vruntime is frozen at push (``requeue``
re-inserts after a change), and the counter makes every key unique, so
the list order is total and no entry is ever stale.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import deque
from typing import Optional

from repro.sched.task import Task

__all__ = ["CfsRunQueue", "O1RunQueue", "RoundRobinQueue"]

_entry_counter = itertools.count()


class CfsRunQueue:
    """Sorted queue of runnable (not running) tasks, keyed by vruntime.

    Pop order is vruntime, then push order for equal vruntimes.  Also
    maintains ``min_vruntime``, the monotonically increasing baseline
    CFS uses to normalize sleepers and migrating tasks.  The native
    engine core reads every field at a fixed slot offset.
    """

    __slots__ = ("_live", "_queue", "_total_weight", "count", "min_vruntime")

    def __init__(self) -> None:
        #: (vruntime, counter, task) entries, smallest first
        self._queue: list[tuple[float, int, Task]] = []
        self._live: dict[int, tuple[float, int, Task]] = {}  # tid -> entry
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
        """Snapshot of queued tasks, in the order they were pushed."""
        return [e[2] for e in self._live.values()]

    def total_weight(self) -> int:
        """Summed weight of queued tasks (maintained, O(1))."""
        return self._total_weight

    # ------------------------------------------------------------------
    def push(self, task: Task) -> None:
        if task.tid in self._live:
            raise ValueError(f"{task} already queued")
        # the counter only tie-breaks equal vruntimes *within* one queue;
        # absolute values never leave the process, so workers drifting
        # apart cannot change any schedule
        entry = (task.vruntime, next(_entry_counter), task)  # sim-lint: ignore[SIM008]
        self._live[task.tid] = entry
        insort(self._queue, entry)
        self._total_weight += task.weight
        self.count += 1

    def pop_min(self) -> Optional[Task]:
        """Remove and return the leftmost (smallest vruntime) task."""
        queue = self._queue
        if not queue:
            return None
        task = queue.pop(0)[2]
        del self._live[task.tid]
        self._total_weight -= task.weight
        self.count -= 1
        if task.vruntime > self.min_vruntime:  # min_vruntime never decreases
            self.min_vruntime = task.vruntime
        return task

    def peek_min(self) -> Optional[Task]:
        return self._queue[0][2] if self._queue else None

    def remove(self, task: Task) -> None:
        """Remove an arbitrary task (migration/sleep), bisecting to its entry."""
        entry = self._live.pop(task.tid, None)
        if entry is None:
            raise ValueError(f"{task} not queued")
        del self._queue[bisect_left(self._queue, entry)]
        self._total_weight -= task.weight
        self.count -= 1

    def max_vruntime(self) -> float:
        """Largest vruntime among queued tasks (for sched_yield)."""
        return self._queue[-1][0] if self._queue else self.min_vruntime

    def requeue(self, task: Task) -> None:
        """Re-insert after a vruntime change (yield, slice expiry)."""
        if task.tid in self._live:
            self.remove(task)
        self.push(task)

    def note_current_vruntime(self, vruntime: float) -> None:
        """Fold the running task's vruntime into min_vruntime tracking.

        CFS updates ``min_vruntime`` from min(leftmost, current); since
        the current task usually has the smallest vruntime, this is what
        mostly advances the baseline.  Runs on every charge.
        """
        queue = self._queue
        if queue and queue[0][0] < vruntime:
            vruntime = queue[0][0]
        if vruntime > self.min_vruntime:
            self.min_vruntime = vruntime


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
