"""CFS policy parameters.

The values model the Completely Fair Scheduler in the Linux 2.6.28
kernel the paper used (Section 2: "Since version 2.6.23, each queue is
managed by the Completely Fair Scheduler").  They are grouped in a
dataclass so experiments can perturb them (the paper notes "a typical
scheduling time quantum is 100 ms" when arguing migration costs are
small relative to a quantum; the effective CFS slice is
``target_latency / nr_running`` bounded below by ``min_granularity``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CfsParams", "O1Params"]


@dataclass(slots=True)
class CfsParams:
    """Tunables of the per-core fair scheduler (all microseconds).

    Slotted: the native engine core reads the slice tunables at fixed
    offsets.

    Attributes
    ----------
    target_latency:
        Scheduling period within which every runnable task should run
        once (``sysctl_sched_latency``).
    min_granularity:
        Lower bound on a time slice; with many runnable tasks the
        period stretches to ``nr * min_granularity``.
    wakeup_granularity:
        A waking task preempts the current one only if its vruntime is
        behind by more than this (prevents over-eager preemption).
    sleeper_credit:
        Cap on the credit a waking sleeper receives: its vruntime is
        set to at least ``min_vruntime - sleeper_credit``.  Linux uses
        half the latency period.
    yield_penalty:
        vruntime nudge applied by ``sched_yield`` beyond the rightmost
        task, ensuring every other runnable task runs first.
    """

    target_latency: int = 24_000
    min_granularity: int = 3_000
    wakeup_granularity: int = 1_000
    sleeper_credit: int = 12_000
    yield_penalty: int = 1

    def slice_for(self, nr_running: int, weight: int = 1024, total_weight: int = 0) -> int:
        """Time slice for one task among ``nr_running`` runnable tasks.

        Implements CFS's ``sched_slice``: the period is
        ``max(target_latency, nr * min_granularity)`` and each task
        receives a weight-proportional share of it.
        """
        nr = max(1, nr_running)
        period = max(self.target_latency, nr * self.min_granularity)
        if total_weight <= 0:
            total_weight = nr * 1024
        share = int(period * weight / total_weight)
        return max(self.min_granularity, share)


@dataclass(slots=True)
class O1Params(CfsParams):
    """Pre-CFS O(1) scheduler: fixed time slices, no sleeper credit.

    Models the per-core policy of the Linux 2.6.22 kernel the paper's
    DWRR prototype ran on: every default-priority task gets the same
    fixed quantum (100 ms for nice 0) and round-robins through the
    active/expired arrays.  ``slice_for`` ignores the runnable count.
    """

    timeslice_us: int = 100_000

    def slice_for(self, nr_running: int, weight: int = 1024, total_weight: int = 0) -> int:
        return self.timeslice_us
