"""The speed metric: ``speed = t_exec / t_real``.

"For the purpose of this work we define speed = t_exec / t_real, where
t_exec is the elapsed execution time and t_real is the wall clock
time.  This measure directly captures the share of CPU time received
by a thread ... It is simpler than using the inverse of queue length as
a speed indicator because that requires weighting threads by
priorities ... the current definition provides an application and OS
independent metric." (Section 5.)

``SpeedEstimator`` mirrors the artifact's use of the taskstats netlink
interface: it snapshots per-thread cumulative execution times and
returns per-interval speeds.  "Because of the way task timing is
measured, there is a certain amount of noise in the measurements" --
modeled as a configurable relative Gaussian perturbation, which is what
the balancer's speed threshold ``T_s`` exists to tolerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sched.task import TASK_RUNNING, Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System

__all__ = ["SpeedSample", "SpeedEstimator"]


@dataclass
class SpeedSample:
    """One per-thread speed observation over a balance interval."""

    tid: int
    speed: float  # exec/wall over the interval, noise included
    exec_us: int  # cumulative exec time at sample point
    at: int  # wall-clock sample time


class SpeedEstimator:
    """Samples thread speeds the way ``speedbalancer`` reads taskstats.

    Parameters
    ----------
    noise_sigma:
        Relative standard deviation of the measurement noise applied
        to each interval's executed time (0 = exact accounting).
    """

    def __init__(self, system: "System", noise_sigma: float = 0.0):
        self.system = system
        self.noise_sigma = noise_sigma
        self._last: dict[int, tuple[int, int]] = {}  # tid -> (exec_us, time)

    # ------------------------------------------------------------------
    def _raw_exec(self, task: Task) -> int:
        """Cumulative execution time including the in-flight interval."""
        core = None
        if task.state is TASK_RUNNING and task.cur_core is not None:
            core = self.system.cores[task.cur_core]
        return task.exec_time_at(self.system.engine.now, core)

    def sample(self, task: Task) -> Optional[SpeedSample]:
        """Speed of ``task`` since its previous sample.

        Returns None on the first observation (no interval yet) or if
        no wall time elapsed.  The snapshot is advanced either way, so
        consecutive calls measure disjoint intervals.
        """
        now = self.system.engine.now
        exec_us = self._raw_exec(task)
        prev = self._last.get(task.tid)
        self._last[task.tid] = (exec_us, now)
        if prev is None:
            return None
        prev_exec, prev_time = prev
        wall = now - prev_time
        if wall <= 0:
            return None
        measured = exec_us - prev_exec
        if self.noise_sigma > 0:
            factor = self.system.rng.gauss("taskstats.noise", 1.0, self.noise_sigma)
            measured = measured * max(0.0, factor)
        speed = min(1.5, max(0.0, measured / wall))  # clamp absurd noise
        return SpeedSample(tid=task.tid, speed=speed, exec_us=exec_us, at=now)

    def forget(self, task: Task) -> None:
        """Drop the snapshot (e.g. the task exited)."""
        self._last.pop(task.tid, None)
