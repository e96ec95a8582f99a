"""Tests for serve-layer primitives (tenants, metrics, the store)."""

import pytest

from repro.serve.metrics import ServeMetrics, percentile
from repro.serve.tenants import Tenant
from repro.serve.workers import ShardedStore
from repro.store import ResultStore


class FakeClock:
    """A hand-cranked clock so metrics tests never sleep."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


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
        tenant = Tenant("t")
        tenant.admit("d1")
        tenant.admit("d2")
        tenant.pop()
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
        assert snap["tenants"] == {"t": {
            "queue_depth": 1, "admitted": 2, "dispatched": 1,
            "completed": 0, "cached": 0, "failed": 0,
        }}


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
