"""The serving layer's single sanctioned wall-clock source.

Everything under :mod:`repro.serve` lives *outside* simulated time: it
schedules real network I/O and measures real latencies, so -- like
:mod:`repro.harness.bench` -- it is legitimately wall-clock-bound.  The
determinism linter's SIM003 rule bans wall-clock reads exactly because
simulation code must use ``engine.now``; the serving layer concentrates
its one exempt read here so every other serve module stays clean under
the rule (:class:`~repro.serve.metrics.ServeMetrics` takes an
injectable ``clock``, and tests pass a fake).
"""

from __future__ import annotations

import time

__all__ = ["monotonic"]


def monotonic() -> float:
    """Seconds from the process-wide monotonic clock.

    The one SIM003-exempt wall-clock read of the serving layer
    (mirroring the ``repro/harness/bench.py`` precedent): job
    latencies, their percentiles and worker utilization are measured in
    real seconds, never simulated ones.  Job deadlines are the worker
    pool's (:mod:`repro.harness.pool`).
    """
    return time.monotonic()  # sim-lint: ignore[SIM003]
