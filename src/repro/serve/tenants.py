"""Per-tenant serving state: a FIFO queue and counters.

A tenant is the name a submission carries (``tenant`` in the body of
``POST /v1/jobs``).  Its queue holds the digests of its admitted jobs
that no worker has taken yet -- the only place work waits, so "queue
depth" is a per-tenant number the metrics endpoint can report exactly.
The daemon serves the tenants with queued work in turn, in name order
(:meth:`repro.serve.server.ReproServer._try_dispatch`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["Tenant"]


@dataclass
class TenantCounters:
    """Monotonic per-tenant counters (the /v1/metrics rows)."""

    admitted: int = 0
    dispatched: int = 0
    completed: int = 0
    cached: int = 0
    failed: int = 0


class Tenant:
    """One tenant's queue and counters."""

    def __init__(self, name: str):
        self.name = name
        self.queue: deque[str] = deque()
        self.counters = TenantCounters()

    def admit(self, digest: str) -> None:
        """Queue one job behind the tenant's earlier ones."""
        self.counters.admitted += 1
        self.queue.append(digest)

    def pop(self) -> str:
        """The tenant's oldest queued job, off to a worker."""
        self.counters.dispatched += 1
        return self.queue.popleft()
