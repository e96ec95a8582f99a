#!/usr/bin/env python3
"""Closed-loop multi-tenant load driver for the `repro serve` daemon.

Boots a daemon on an ephemeral port (or targets a running one via
``--url``), then runs one closed-loop client thread per tenant: each
submits a batch of distinct simulation specs, waits for every job to
finish, and immediately submits the next batch until the wall-clock
budget runs out.  The tenants differ only in batch size, so the run
shows what the serving layer claims:

* every batch is admitted, however large;
* the tenants take turns on the workers, so the one with small
  batches is never stuck behind the others' whole queues;
* digest dedup and store caching across repeated submissions.

At the end it prints per-tenant closed-loop stats next to the
daemon's own ``/v1/metrics`` view, then drains gracefully.

Run:  python examples/load_test.py [--duration 10] [--workers 2]
      python examples/load_test.py --url http://127.0.0.1:8421
"""

import argparse
import threading

from repro.apps.workloads import AppSpec
from repro.harness import report
from repro.harness.parallel import RunSpec
from repro.serve import BackgroundServer, ServeClient, ServeConfig
from repro.serve import clock as _clock

#: (tenant, batch size)
TENANTS = [("large", 10), ("medium", 6), ("small", 2)]


def _spec(seed: int) -> RunSpec:
    app = AppSpec(bench="ep.C", n_threads=4, total_compute_us=20_000)
    return RunSpec.make("tigerton", app, balancer="speed", cores=2, seed=seed)


class TenantLoop(threading.Thread):
    """One tenant's closed loop: submit a batch, wait for it, repeat."""

    def __init__(self, url, name, batch, seed_base, deadline):
        super().__init__(name=f"load-{name}", daemon=True)
        self.client = ServeClient(url)
        self.tenant = name
        self.batch = batch
        self.seed_base = seed_base
        self.deadline = deadline
        self.submitted = 0
        self.completed = 0
        self.batches = 0
        self.errors = []

    def run(self):
        seed = self.seed_base
        try:
            while _clock.monotonic() < self.deadline:
                specs = [_spec(seed + i) for i in range(self.batch)]
                seed += self.batch
                resp = self.client.submit(specs, tenant=self.tenant)
                self.submitted += len(specs)
                for job in resp["jobs"]:
                    view = self.client.wait(
                        job["digest"], poll_s=0.05, timeout_s=120
                    )
                    if view["state"] in ("done", "cached"):
                        self.completed += 1
                self.batches += 1
        except Exception as exc:  # pragma: no cover - reported in main
            self.errors.append(exc)
        finally:
            self.client.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None,
                        help="target a running daemon instead of booting one")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="closed-loop driving time in seconds")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for the embedded daemon")
    parser.add_argument("--store", default=".repro-loadtest",
                        help="store root for the embedded daemon")
    args = parser.parse_args()

    background = None
    url = args.url
    if url is None:
        background = BackgroundServer(ServeConfig(
            store_root=args.store, port=0, workers=args.workers,
            tenants=tuple(name for name, _batch in TENANTS),
        )).start()
        url = background.base_url
        print(f"booted daemon at {url} ({args.workers} workers)")

    deadline = _clock.monotonic() + args.duration
    loops = [
        TenantLoop(url, name, batch, seed_base=1000 * i, deadline=deadline)
        for i, (name, batch) in enumerate(TENANTS)
    ]
    print(f"driving {len(loops)} tenants for {args.duration:g}s ...")
    for loop in loops:
        loop.start()
    for loop in loops:
        loop.join()

    client = ServeClient(url)
    snapshot = client.metrics()
    client.close()
    rows = []
    for loop in loops:
        stats = snapshot["tenants"].get(loop.tenant, {})
        rows.append([
            loop.tenant,
            loop.batches,
            loop.submitted,
            loop.completed,
            stats.get("dispatched", "-"),
            stats.get("cached", "-"),
        ])
    print(report.table(
        ["tenant", "batches", "submitted", "completed", "dispatched",
         "cached"],
        rows,
        title="closed-loop load test",
    ))
    latency = snapshot["latency"]
    print(
        f"daemon: {snapshot['completed']} completed, "
        f"cache-hit ratio {snapshot['cache_hit_ratio']:.2f}, "
        f"p50 {latency['p50_s']:.3f}s p95 {latency['p95_s']:.3f}s, "
        f"worker utilization {snapshot['workers']['utilization']:.2f}"
    )

    failed = [(loop.tenant, loop.errors) for loop in loops if loop.errors]
    if background is not None:
        background.drain()
        print("daemon drained")
    if failed:
        for tenant, errors in failed:
            print(f"tenant {tenant} failed: {errors[0]!r}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
