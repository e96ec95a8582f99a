"""Tests for serve-layer fairness primitives (tenants, dispatch, metrics)."""

import pytest

from repro.serve.dispatch import SpeedAwareDispatcher
from repro.serve.metrics import ServeMetrics, percentile
from repro.serve.tenants import (
    AdmissionError,
    ServiceWindow,
    Tenant,
    TenantConfig,
    TokenBucket,
)
from repro.serve.workers import ShardedStore
from repro.store import ResultStore


class FakeClock:
    """A hand-cranked clock so fairness tests never sleep."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def _tenant(clock, name="t", weight=1.0, rate=50.0, burst=100.0, limit=512):
    return Tenant(
        TenantConfig(
            name=name, weight=weight, rate=rate, burst=burst,
            queue_limit=limit,
        ),
        window_s=10.0,
        clock=clock,
    )


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        assert bucket.take(5, now=0.0) is None  # full burst drains
        wait = bucket.take(1, now=0.0)
        assert wait == pytest.approx(0.1)  # 1 token at 10/s
        assert bucket.take(1, now=0.2) is None  # refilled meanwhile

    def test_rejection_consumes_nothing(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        assert bucket.take(4, now=0.0) is None
        assert bucket.take(4, now=0.0) is not None  # rejected
        assert bucket.available(0.0) == pytest.approx(1.0)  # untouched

    def test_over_burst_request_reports_full_drain(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        assert bucket.take(50, now=0.0) == pytest.approx(5.0)


class TestServiceWindow:
    def test_rate_decays_as_samples_expire(self):
        win = ServiceWindow(window_s=10.0)
        win.record(now=0.0, busy_s=5.0)
        assert win.rate(now=0.0) == pytest.approx(0.5)
        assert win.rate(now=9.0) == pytest.approx(0.5)
        assert win.rate(now=11.0) == 0.0  # sample aged out


class TestAdmission:
    def test_batch_is_atomic_on_queue_overflow(self):
        clock = FakeClock()
        tenant = _tenant(clock, limit=3)
        tenant.admit(["a", "b"], now=0.0)
        with pytest.raises(AdmissionError):
            tenant.admit(["c", "d"], now=0.0)  # only 1 slot left
        assert list(tenant.queue) == ["a", "b"]  # nothing admitted
        assert tenant.counters.rejected == 2

    def test_rate_rejection_carries_retry_after(self):
        clock = FakeClock()
        tenant = _tenant(clock, rate=10.0, burst=4.0)
        tenant.admit(["a", "b", "c", "d"], now=0.0)
        with pytest.raises(AdmissionError) as err:
            tenant.admit(["e", "f"], now=0.0)
        assert err.value.retry_after_s == pytest.approx(0.2)
        assert list(tenant.queue) == ["a", "b", "c", "d"]


class TestSpeedAwareDispatcher:
    def test_prefers_slowest_served_tenant(self):
        clock = FakeClock()
        fast = _tenant(clock, name="fast")
        slow = _tenant(clock, name="slow")
        fast.admit(["f1"], now=0.0)
        slow.admit(["s1"], now=0.0)
        fast.record_service(5.0)  # fast already got lots of service
        picked = SpeedAwareDispatcher().pick([fast, slow], now=0.0)
        assert picked is slow

    def test_weight_scales_entitlement(self):
        clock = FakeClock()
        heavy = _tenant(clock, name="heavy", weight=4.0)
        light = _tenant(clock, name="light", weight=1.0)
        heavy.admit(["h1"], now=0.0)
        light.admit(["l1"], now=0.0)
        # equal raw service, but heavy's weight-4 entitlement makes its
        # per-weight share a quarter of light's
        heavy.record_service(2.0)
        light.record_service(2.0)
        picked = SpeedAwareDispatcher().pick([light, heavy], now=0.0)
        assert picked is heavy

    def test_ties_break_on_name_and_empty_queues_skip(self):
        clock = FakeClock()
        a = _tenant(clock, name="a")
        b = _tenant(clock, name="b")
        b.admit(["x", "z"], now=0.0)
        dispatcher = SpeedAwareDispatcher()
        picked = dispatcher.pick([a, b], now=0.0)
        assert picked is b  # a has no work
        picked.pop()
        a.admit(["y"], now=0.0)
        picked = dispatcher.pick([b, a], now=0.0)
        assert picked is a  # tie -> name order
        picked.pop()
        # each pick the server acts on is one tenant's dispatched job
        assert (a.counters.dispatched, b.counters.dispatched) == (1, 1)

    def test_starvation_free_under_flood(self):
        """A flooding tenant cannot monopolize: shares level out."""
        clock = FakeClock()
        flood = _tenant(clock, name="flood")
        meek = _tenant(clock, name="meek")
        flood.admit([f"f{i}" for i in range(50)], now=0.0)
        meek.admit(["m0", "m1"], now=0.0)
        dispatcher = SpeedAwareDispatcher()
        order = []
        for _ in range(10):
            tenant = dispatcher.pick([flood, meek], now=clock.now)
            digest = tenant.pop()
            order.append(digest)
            tenant.record_service(1.0)  # every job costs 1 busy second
            clock.tick(1.0)
        # both meek jobs are served within the first four decisions
        assert {"m0", "m1"} <= set(order[:4])


class TestMetrics:
    def test_percentile_interpolates(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 4.0
        assert percentile(samples, 50) == pytest.approx(2.5)
        assert percentile([], 99) == 0.0
        with pytest.raises(ValueError):
            percentile(samples, 101)

    def test_snapshot_counts_and_ratio(self):
        clock = FakeClock()
        metrics = ServeMetrics(clock=clock)
        tenant = _tenant(clock, name="t")
        metrics.submitted += 3
        metrics.admitted += 2
        metrics.deduped += 1
        metrics.record_completion("done", 0.5)
        metrics.record_completion("cached", 0.1)
        metrics.record_worker_busy(0, 2.0)
        clock.tick(10.0)
        snap = metrics.snapshot([tenant], n_workers=2, inflight={})
        assert snap["completed"] == 2
        assert snap["executed"] == 1
        assert snap["cached"] == 1
        # hits = cached + deduped = 2 of 3 lookups
        assert snap["cache_hit_ratio"] == pytest.approx(2 / 3)
        assert snap["latency"]["p50_s"] == pytest.approx(0.3)
        assert snap["workers"]["utilization"] == pytest.approx(0.1)
        assert "t" in snap["tenants"]


class TestSharding:
    def test_sharded_store_routes_reads(self, tmp_path):
        store = ShardedStore(tmp_path, 4)
        # every worker's view is the one root
        assert len(store.shards) == 4
        assert all(shard is store for shard in store.shards)
        assert store.digests() == [] and store.verify() == []
        digest = store.shards[3].put({"kind": "t", "i": 0}, 0)
        assert ResultStore(tmp_path).contains(digest)
        assert store.contains(digest) and store.get(digest).payload == 0
        assert store.digests() == [digest] and store.verify() == []
