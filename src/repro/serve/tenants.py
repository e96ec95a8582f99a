"""Per-tenant serving state: bounded queues, rate limits, service windows.

Each tenant of the daemon owns three small mechanisms:

* a **bounded FIFO queue** of admitted-but-undispatched job digests --
  the only place work waits, so "queue depth" is a per-tenant number
  the metrics endpoint can report exactly;
* a **token bucket** rate limiter over submissions.  An over-rate or
  over-queue batch is rejected *atomically* with
  :class:`AdmissionError` carrying a concrete ``retry_after_s`` -- the
  explicit-backpressure contract (HTTP 429 + ``Retry-After``) that
  replaces unbounded queueing;
* a **sliding service window** recording the worker-busy seconds the
  tenant actually received.  The dispatcher reads it as the tenant's
  observed *service speed* -- the serving-layer analogue of the
  paper's thread speed (executed time over wall time) -- and pulls the
  slowest-served tenant with queued work first, instead of balancing
  on queue *length* the way naive FCFS admission would.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.serve import clock as _clock

__all__ = [
    "AdmissionError",
    "ServiceWindow",
    "Tenant",
    "TenantConfig",
    "TokenBucket",
]


class AdmissionError(Exception):
    """A submission batch was rejected; retry after ``retry_after_s``."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = max(0.0, retry_after_s)


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s refill, ``burst`` capacity.

    ``take(n, now)`` either consumes ``n`` tokens and returns ``None``
    or consumes nothing and returns the seconds until ``n`` tokens
    will be available -- the ``Retry-After`` the caller should send.
    """

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError(f"rate and burst must be > 0 (got {rate}, {burst})")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp: Optional[float] = None

    def _refill(self, now: float) -> None:
        if self._stamp is not None and now > self._stamp:
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def take(self, n: float, now: float) -> Optional[float]:
        self._refill(now)
        if n > self.burst:
            # can never succeed by waiting; report the full-drain time
            # (the caller turns this into a hard 429 for the batch)
            return n / self.rate
        if self._tokens >= n:
            self._tokens -= n
            return None
        return (n - self._tokens) / self.rate

    def available(self, now: float) -> float:
        self._refill(now)
        return self._tokens


class ServiceWindow:
    """Sliding window of ``(finish_stamp, busy_s)`` service samples.

    ``rate(now)`` is the tenant's observed service speed: worker-busy
    seconds received per wall second over the trailing ``window_s``.
    A tenant nobody served recently decays toward zero and therefore
    toward the front of the dispatcher's slowest-served order --
    starvation-freedom falls out of the measurement itself.
    """

    def __init__(self, window_s: float = 30.0):
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0 (got {window_s})")
        self.window_s = float(window_s)
        self._samples: deque[tuple[float, float]] = deque()
        self._total = 0.0

    def record(self, now: float, busy_s: float) -> None:
        self._samples.append((now, busy_s))
        self._total += busy_s
        self._expire(now)

    def _expire(self, now: float) -> None:
        cutoff = now - self.window_s
        while self._samples and self._samples[0][0] < cutoff:
            _, busy = self._samples.popleft()
            self._total -= busy

    def busy_s(self, now: float) -> float:
        self._expire(now)
        return max(0.0, self._total)

    def rate(self, now: float) -> float:
        return self.busy_s(now) / self.window_s


@dataclass(frozen=True)
class TenantConfig:
    """Admission and fairness knobs of one tenant."""

    name: str
    #: fair-share weight: a weight-2 tenant is entitled to twice the
    #: service speed of a weight-1 tenant under contention
    weight: float = 1.0
    #: token-bucket refill, submissions per second
    rate: float = 50.0
    #: token-bucket capacity (burst size)
    burst: float = 100.0
    #: bound on admitted-but-undispatched jobs
    queue_limit: int = 512

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"tenant weight must be > 0 (got {self.weight})")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1 (got {self.queue_limit})")


@dataclass
class TenantCounters:
    """Monotonic per-tenant counters (the /v1/metrics rows)."""

    admitted: int = 0
    rejected: int = 0
    dispatched: int = 0
    completed: int = 0
    cached: int = 0
    failed: int = 0


class Tenant:
    """One tenant's queue, rate limiter, service window and counters."""

    def __init__(
        self,
        config: TenantConfig,
        window_s: float = 30.0,
        clock: Callable[[], float] = _clock.monotonic,
    ):
        self.config = config
        self.queue: deque[str] = deque()
        self.bucket = TokenBucket(config.rate, config.burst)
        self.window = ServiceWindow(window_s)
        self.counters = TenantCounters()
        self._clock = clock

    @property
    def name(self) -> str:
        return self.config.name

    def admit(self, digests: Sequence[str], now: Optional[float] = None) -> None:
        """Admit a batch atomically or raise :class:`AdmissionError`.

        Rejection consumes neither tokens nor queue slots: a 429 must
        leave the tenant exactly as it found it.
        """
        if now is None:
            now = self._clock()
        n = len(digests)
        if n == 0:
            return
        space = self.config.queue_limit - len(self.queue)
        if n > space:
            self.counters.rejected += n
            raise AdmissionError(
                f"tenant {self.name!r} queue is full "
                f"({len(self.queue)}/{self.config.queue_limit} queued, "
                f"{n} submitted)",
                retry_after_s=1.0,
            )
        wait = self.bucket.take(n, now)
        if wait is not None:
            self.counters.rejected += n
            raise AdmissionError(
                f"tenant {self.name!r} is over its submission rate "
                f"({self.config.rate:g}/s, burst {self.config.burst:g}); "
                f"retry in {wait:.3f}s",
                retry_after_s=wait,
            )
        self.counters.admitted += n
        self.queue.extend(digests)

    def requeue_front(self, digest: str) -> None:
        """Put a job back at the head (retry / drain-resume path)."""
        self.queue.appendleft(digest)

    def pop(self) -> str:
        self.counters.dispatched += 1
        return self.queue.popleft()

    def record_service(self, busy_s: float, now: Optional[float] = None) -> None:
        """Credit ``busy_s`` worker seconds to this tenant's window."""
        self.window.record(self._clock() if now is None else now, busy_s)

    def service_share(self, now: Optional[float] = None) -> float:
        """Observed service speed per unit weight (the dispatch key)."""
        if now is None:
            now = self._clock()
        return self.window.rate(now) / self.config.weight
