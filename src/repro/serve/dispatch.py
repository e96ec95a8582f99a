"""Speed-aware weighted-fair dispatch across tenants.

The paper's thesis, applied to the serving layer: balancing on queue
*length* starves whoever is slow.  A dispatcher that always drains the
longest queue hands the worker pool to the flooding tenant (its queue
is always longest), while a round-robin over queues hands equal *turn
counts* to tenants whose jobs differ 100x in cost -- the tenant with
heavy jobs eats the pool either way.  What admission should equalize
is the *service speed* each tenant observes: worker-busy seconds
received per wall second, per unit weight.

:class:`SpeedAwareDispatcher` therefore pulls from the **slowest-served
eligible tenant** -- minimum ``service_share()`` (trailing-window busy
rate over weight, :class:`~repro.serve.tenants.ServiceWindow`) among
tenants with queued work.  Consequences, asserted by the fairness
tests:

* a flooding tenant's share rises as its jobs complete, so every other
  tenant's queued work is preferred until shares level -- no
  starvation, regardless of queue-length ratios;
* tenants with expensive jobs accumulate share *faster* per job, so
  they get proportionally fewer turns -- cheap interactive submissions
  interleave ahead of background sweeps exactly as Lim & Min's
  interactivity-aware balancer prioritizes the latency-sensitive
  workload;
* weights buy proportional service: doubling a tenant's weight halves
  its measured share, moving it earlier in the order.

Ties (e.g. all-idle startup) break on tenant name, keeping dispatch
order deterministic for the tests.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.serve.tenants import Tenant

__all__ = ["SpeedAwareDispatcher"]


class SpeedAwareDispatcher:
    """Pick the slowest-served tenant with queued work (see module docs).

    Stateless: each tenant's ``dispatched`` counter (in the
    ``/v1/metrics`` snapshot) already counts the picks.
    """

    def pick(
        self, tenants: Iterable[Tenant], now: Optional[float] = None
    ) -> Optional[Tenant]:
        """The tenant to serve next, or ``None`` if no queue holds work."""
        best: Optional[Tenant] = None
        best_key: Optional[tuple[float, str]] = None
        for tenant in tenants:
            if not tenant.queue:
                continue
            key = (tenant.service_share(now), tenant.name)
            if best_key is None or key < best_key:
                best, best_key = tenant, key
        return best
