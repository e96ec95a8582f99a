"""Put latency against store size: does a write cost more as the store grows?

Fills a fresh store with ``--entries`` entries, timing every
``ResultStore.put``, and prints the p50 and p90 put time per bucket of
``--bucket`` entries (puts in the order they started), the puts per
second over the whole fill, then the time of one ``digests()`` over the
full store.  ``--kind value`` files small plain values under dict keys
(the store's value entries); ``--kind run`` files one serve-sized run
result (the serve-mixed job of perfbench) under a new seed each time,
so each put also pays the result digest and the entry's JSON.

``--writers N`` fills the store from N forked processes at once, the
way ``repro serve --workers N`` does: writer ``k`` files every entry
``i`` with ``i % N == k`` through ``ShardedStore(root, N).shards[k]``,
the store the daemon's worker ``k`` writes, so the same script times
whichever layout the checkout's daemon uses (one shared root, or one
root per worker).

    PYTHONPATH=src python benchmarks/store_writes.py --entries 10000
    PYTHONPATH=src python benchmarks/store_writes.py --kind run --entries 1200 --bucket 200
    PYTHONPATH=src python benchmarks/store_writes.py --writers 4 --entries 4000
"""

from __future__ import annotations

import argparse
import multiprocessing
import statistics
import tempfile
import time
from pathlib import Path

from repro.apps.workloads import AppSpec
from repro.harness.parallel import RunSpec, run_spec
from repro.serve.workers import ShardedStore


def serve_spec(seed: int) -> RunSpec:
    app = AppSpec(bench="ep.C", n_threads=4, wait="yield", total_compute_us=20_000)
    return RunSpec.make("tigerton", app, balancer="speed", cores=2, seed=seed)


def _writer(root, n_writers, k, entries, result, ready, out) -> None:
    """Writer ``k``: file its share of the entries, timing each put."""
    store = ShardedStore(root, n_writers).shards[k]
    times = []
    ready.wait()
    for i in range(k, entries, n_writers):
        if result is None:
            key, outcome = {"kind": "curve", "i": i}, i
        else:
            key, outcome = serve_spec(i), result
        t0 = time.perf_counter()
        store.put(key, outcome)
        times.append((t0, time.perf_counter() - t0))
    out.put(times)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--entries", type=int, default=10_000)
    ap.add_argument("--bucket", type=int, default=1_000)
    ap.add_argument("--kind", choices=("value", "run"), default="value")
    ap.add_argument("--writers", type=int, default=1)
    args = ap.parse_args()

    result = run_spec(serve_spec(0)) if args.kind == "run" else None
    ctx = multiprocessing.get_context("fork")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        ready, out = ctx.Barrier(args.writers + 1), ctx.Queue()
        procs = [
            ctx.Process(target=_writer, args=(root, args.writers, k, args.entries,
                                              result, ready, out))
            for k in range(args.writers)
        ]
        for p in procs:
            p.start()
        ready.wait()
        t0 = time.perf_counter()
        times = sorted(t for _ in procs for t in out.get())
        wall = time.perf_counter() - t0
        for p in procs:
            p.join()
        durations = [d for _, d in times]
        print(f"{args.kind} entries, {args.writers} writer(s)  put p50 / p90 (ms)")
        for lo in range(0, args.entries, args.bucket):
            chunk = durations[lo:lo + args.bucket]
            p90 = statistics.quantiles(chunk, n=10)[-1] if len(chunk) > 1 else chunk[0]
            print(f"{lo:>6}-{lo + len(chunk):<6}  {statistics.median(chunk) * 1e3:7.2f}"
                  f"  {p90 * 1e3:7.2f}")
        print(f"{args.entries / wall:.0f} puts/s over the whole fill")
        store = ShardedStore(root, args.writers)
        listing = []
        for _ in range(5):
            t0 = time.perf_counter()
            n = len(store.digests())
            listing.append(time.perf_counter() - t0)
        print(f"digests() over {n} entries: {min(listing) * 1e3:.1f} ms (best of 5)")


if __name__ == "__main__":
    main()
