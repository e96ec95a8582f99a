#!/usr/bin/env python3
"""The repository benchmark: figure regeneration and served-job latency.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figure-cold --seed 1 --seconds 20 --trace 0

It imports ``repro`` from ``src/`` of the same checkout, compiles the
native engine core into ``.bench_build/`` on first use and keeps every
file it writes there.  ``--trace 0`` prints the end-to-end metrics
named in BENCHMARK.json; ``--trace 1`` prints its per-layer metrics
instead.  Each workload makes a fixed number of passes; ``--seconds``
only caps them.  The whole run, serve daemon included, is pinned to one
CPU, and the untraced run reports its times host-normalised against
calibration samples taken on that CPU between the timed stretches (see
``perfbench/calib.py``).  The last line of standard output is one JSON
object.
A failed output check exits with status 1 and prints no result; a
benchmark that cannot run here (no ``src/``, no C compiler) exits with
status 2.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

#: set-ups per untraced run; setup_s adds their median to the import time
SETUPS = 3


def _fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every grid and store (self-tests only)")
    return p.parse_args(argv)


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them under ``kind``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def _import_program():
    """Import ``repro`` from this checkout's sources, never another copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program sources at {src}; run from a full checkout", 2)
    # keep the native build cache and every temporary file (the C
    # compiler's included) inside the checkout
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from {src}", 2)
    from perfbench import workloads

    return workloads


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _args(argv)
    # a terminated run still stops the daemon it started (finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for the whole run, daemons included: the calibration
    # samples then measure the CPU that does all of the timed work
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workloads = _import_program()
    from perfbench import calib, probe

    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", 2)
    # compiling the native core is a one-off per source change, not set-up
    t = time.perf_counter()
    try:
        workloads.require_native()
    except workloads.BenchError as exc:
        _fail(str(exc), 2)
    print(f"perfbench: native core built or loaded in "
          f"{time.perf_counter() - t:.3f} s (not part of setup_s)")
    workdir = BUILD / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    try:
        if args.trace:
            metrics, attempted = _traced(wl, workloads, probe)
            units = _units("per_layer")
        else:
            metrics, attempted = _untraced(wl, workloads, calib, args.seconds, import_s)
            units = _units("end_to_end")
    except workloads.CheckError as exc:
        _fail(f"output check failed: {exc}", 1)
    except workloads.BenchError as exc:
        _fail(str(exc), 2)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        _fail(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}", 1)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} ops={attempted} failed={wl.failed}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted + wl.failed,
        "failed": wl.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def _untraced(wl, workloads, calib, seconds: float, import_s: float):
    """Set up SETUPS times, then make the workload's passes, with
    calibration samples between the timed stretches (see calib)."""
    wl.calibrated = True
    calib.kernel()  # the first sample runs cold; discard it
    wl.tick(5)
    import_s *= calib.factor(wl.samples)
    setups = []
    for _ in range(SETUPS):
        wl.close()  # the previous set-up's daemon stops untimed
        gc.collect()  # and its garbage goes: peak RSS is one set-up's
        wl.samples = []
        wl.tick(2)
        t = time.perf_counter()
        wl.setup()
        # set-up may sample on its way; that time is not set-up's
        elapsed = time.perf_counter() - t - sum(wl.samples[2:])
        wl.tick(2)
        setups.append(elapsed * calib.factor(wl.samples))
    setup_s = import_s + statistics.median(setups)
    wl.samples = []
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < wl.passes and (not passes or time.perf_counter() < deadline):
        # every pass starts from the same collector state
        gc.collect()
        passes.append(wl.run_pass())
    wl.final_check()
    metrics = workloads.end_to_end(passes, setup_s, _rss_mb(resource.RUSAGE_SELF))
    attempted = sum(len(p.ops) for p in passes)
    samples = [k for p in passes for k in p.samples]
    print(f"perfbench: import {import_s:.3f} s, set-ups "
          f"{' '.join(f'{s:.3f}' for s in setups)} s (host-normalised); passes "
          f"{len(passes)} of {wl.passes}, operations {attempted}; measured pass "
          f"median {statistics.median(p.wall_s for p in passes):.4f} s; "
          f"calibration kernel median {1e3 * statistics.median(samples):.2f} ms "
          f"(reference {1e3 * calib.REF_S:.2f} ms)")
    return metrics, attempted


def _traced(wl, workloads, probe):
    light = probe.Tracer(events=False)
    wl.setup(light)
    wl.run_pass()  # warm-up: the serve daemon starts its worker on the first job
    gc.collect()
    base = wl.run_pass()
    gc.collect()
    light_passes = []
    with probe.activate(light):
        for _ in range(wl.traced_passes):
            light_passes.append(wl.run_pass(light))
    light_pass = workloads.Pass(
        sum(p.wall_s for p in light_passes), [op for p in light_passes for op in p.ops])
    detailed = detailed_pass = None
    if wl.simulates:
        gc.collect()
        detailed = probe.Tracer(events=True)
        with probe.activate(detailed):
            detailed_pass = wl.run_pass(detailed)
    wl.final_check()
    metrics = workloads.per_layer(wl, base, light, light_pass, detailed, detailed_pass)
    passes = [base, light_pass] + ([detailed_pass] if detailed_pass else [])
    attempted = sum(len(p.ops) for p in passes)
    wl.close()  # children are waited for, so their peak RSS is counted
    metrics["bench.child_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
    metrics["bench.error_rate"] = wl.failed / max(1, attempted + wl.failed)
    latencies = [op.seconds for op in light_pass.ops]
    metrics["bench.latency_p99_ms"] = 1e3 * workloads.pct(latencies, 99)
    metrics["bench.latency_samples"] = len(latencies)
    _write_spans(wl, light, detailed)
    return metrics, attempted


def _write_spans(wl, light, detailed) -> None:
    """Spans were kept in memory; write them out once, at the end."""
    out = BUILD / "spans" / f"{wl.name}-seed{wl.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    fields = ("name", "start", "end", "parent", "op")
    doc = {
        "light": [dict(zip(fields, s)) for s in light.spans],
        "detailed": [dict(zip(fields, s)) for s in detailed.spans] if detailed else [],
        "event_seconds": dict(detailed.seconds) if detailed else {},
        "counts": dict(detailed.counts if detailed else light.counts),
    }
    out.write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
