"""Serving metrics: counters, latency percentiles, utilization.

Everything ``GET /v1/metrics`` reports is computed here from plain
monotonic counters and a bounded reservoir of completion latencies --
no background sampling threads, no wall-clock reads outside the
injected ``clock``.  The snapshot is a plain JSON-able dict so the
tests can assert on exact counter values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict
from typing import Callable, Iterable, Mapping, Optional

from repro.serve import clock as _clock
from repro.serve.tenants import Tenant

__all__ = ["ServeMetrics", "percentile"]


def percentile(samples: list[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0..100) of ``samples``.

    Returns 0.0 for an empty list -- the metrics endpoint reports
    zeros rather than nulls before any job completes.
    """
    if not samples:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100] (got {p})")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class ServeMetrics:
    """Daemon-wide counters + a bounded latency reservoir."""

    def __init__(
        self,
        clock: Callable[[], float] = _clock.monotonic,
        latency_samples: int = 4096,
    ):
        self._clock = clock
        self.started_at = clock()
        self.connections = 0  #: accepted; each carries one or more requests
        self.requests = 0
        self.bad_requests = 0
        self.submitted = 0
        self.admitted = 0
        self.rejected = 0  #: POSTs refused with 503 while draining
        self.deduped = 0  #: submissions resolved to an existing job/entry
        self.completed = 0
        self.cached = 0  #: completions served from the store, no simulation
        self.failed = 0
        self.timeouts = 0
        self.sse_streams = 0
        self.drains = 0
        self._latencies: deque[float] = deque(maxlen=latency_samples)
        self._worker_busy: dict[int, float] = {}

    # -- recording ------------------------------------------------------
    def record_completion(self, state: str, latency_s: float) -> None:
        """Count one terminal transition and sample its latency.

        Latency is submit-to-terminal wall seconds -- the number a
        closed-loop client observes, which is what the percentile rows
        of ``/v1/metrics`` summarize.
        """
        self.completed += 1
        if state == "cached":
            self.cached += 1
        elif state == "failed":
            self.failed += 1
        self._latencies.append(latency_s)

    def record_worker_busy(self, worker_id: int, busy_s: float) -> None:
        self._worker_busy[worker_id] = (
            self._worker_busy.get(worker_id, 0.0) + busy_s
        )

    # -- snapshot -------------------------------------------------------
    def latency_percentiles(self) -> dict[str, float]:
        samples = list(self._latencies)
        return {
            "p50_s": percentile(samples, 50.0),
            "p95_s": percentile(samples, 95.0),
            "p99_s": percentile(samples, 99.0),
            "samples": float(len(samples)),
        }

    def utilization(self, n_workers: int, now: Optional[float] = None) -> float:
        """Fraction of worker capacity spent busy since startup."""
        if n_workers < 1:
            return 0.0
        elapsed = max(1e-9, (self._clock() if now is None else now) - self.started_at)
        busy = sum(self._worker_busy.values())
        return min(1.0, busy / (n_workers * elapsed))

    def snapshot(
        self,
        tenants: Iterable[Tenant] = (),
        n_workers: int = 0,
        inflight: Mapping[str, str] | None = None,
    ) -> dict:
        """The full ``/v1/metrics`` payload as a plain dict."""
        now = self._clock()
        executed = self.completed - self.cached - self.failed
        hits = self.cached + self.deduped
        lookups = hits + executed
        tenant_rows = {
            t.name: {"queue_depth": len(t.queue), **asdict(t.counters)}
            for t in sorted(tenants, key=lambda t: t.name)
        }
        return {
            "uptime_s": now - self.started_at,
            "connections": self.connections,
            "requests": self.requests,
            "bad_requests": self.bad_requests,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "deduped": self.deduped,
            "completed": self.completed,
            "executed": executed,
            "cached": self.cached,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "sse_streams": self.sse_streams,
            "cache_hit_ratio": (hits / lookups) if lookups else 0.0,
            "latency": self.latency_percentiles(),
            "workers": {
                "count": n_workers,
                "inflight": len(inflight or {}),
                "utilization": self.utilization(n_workers, now),
                "busy_s": {str(k): v for k, v in sorted(self._worker_busy.items())},
            },
            "tenants": tenant_rows,
        }
