"""The serving layer's single sanctioned wall-clock source.

Everything under :mod:`repro.serve` lives *outside* simulated time: it
schedules real network I/O, measures real latencies and rate-limits
real clients, so -- like :mod:`repro.harness.bench` -- it is
legitimately wall-clock-bound.  The determinism linter's SIM003 rule
bans wall-clock reads exactly because simulation code must use
``engine.now``; the serving layer concentrates its one exempt read
here so every other serve module stays clean under the rule and every
consumer takes an injectable ``clock`` callable (tests pass a fake).
"""

from __future__ import annotations

import time

__all__ = ["monotonic"]


def monotonic() -> float:
    """Seconds from the process-wide monotonic clock.

    The one SIM003-exempt wall-clock read of the serving layer
    (mirroring the ``repro/harness/bench.py`` precedent): admission
    windows, token buckets and latency percentiles are all measured in
    real seconds, never simulated ones.  Job deadlines are the worker
    pool's (:mod:`repro.harness.pool`).
    """
    return time.monotonic()  # sim-lint: ignore[SIM003]
