"""Perf trajectory tracking: the ``repro bench`` suite.

Every other bench in ``benchmarks/`` regenerates a paper artifact;
this module tracks how *fast* the simulator itself is, over time.  It
runs the simulator-performance suite (bare-engine event throughput)
plus one representative figure scenario per workload shape -- the
dedicated SPMD run behind Figure 3, the fine-grained-barrier shape
behind Figure 2/cg.B, and the multiprogrammed cpu-hog shape behind
Figure 5 -- and writes a machine-readable ``BENCH_<label>.json`` with
per-bench wall time, dispatched-event counts and events/sec.

Comparing two such files gives the perf trajectory: wall times and
events/sec are hardware-dependent (only comparable on the same
machine, and only between runs of the same ``quick`` flavour), while
the dispatched-event counts are *deterministic* -- a count drift
between two checkouts means simulated behaviour changed, which doubles
as a cross-machine determinism tripwire.

This module deliberately reads the wall clock (``time.perf_counter``);
it measures the simulator from outside rather than participating in
simulated time, so its two clock reads carry inline
``# sim-lint: ignore[SIM003]`` comments.  Nothing here makes
scheduling decisions.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.apps.multiprogram import CpuHog
from repro.apps.workloads import AppSpec
from repro.harness.experiment import run_app
from repro.sim.backends import make_engine
from repro.topology import presets

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "bench_names",
    "compare_payloads",
    "load_payload",
    "profile_benches",
    "run_benches",
    "to_payload",
    "write_payload",
]

BENCH_SCHEMA = 1


@dataclass
class BenchResult:
    """One bench case: best-of-``rounds`` wall time and event counts."""

    name: str
    wall_s: float
    events: int
    rounds: int

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def ns_per_event(self) -> float:
        """Mean dispatch cost -- the number backend work should move."""
        return self.wall_s * 1e9 / self.events if self.events > 0 else 0.0


# ----------------------------------------------------------------------
# bench cases: each returns a zero-arg callable whose result is the
# number of engine events the round dispatched
# ----------------------------------------------------------------------
def _engine_throughput(quick: bool, engine: str) -> Callable[[], int]:
    """The bare dispatch loop: n self-scheduling events, no simulator."""
    n = 20_000 if quick else 100_000

    def round() -> int:
        eng = make_engine(engine)
        count = [0]

        def tick() -> None:
            count[0] += 1
            if count[0] < n:
                eng.schedule(1, tick)

        eng.schedule(0, tick)
        eng.run()
        return eng.dispatched

    return round


def _scenario(spec: AppSpec, balancer: str, cores: int, engine: str,
              corunner: bool = False, machine: str = "tigerton",
              trace: bool = False) -> Callable[[], int]:
    def round() -> int:
        corunners = [lambda s: CpuHog(s, core=0)] if corunner else ()
        _, system = run_app(
            getattr(presets, machine)(), spec, balancer=balancer, cores=cores,
            seed=1, corunner_factories=corunners, return_system=True,
            trace=trace, engine=engine,
        )
        return system.engine.dispatched

    return round


def _ep_dedicated(quick: bool, engine: str) -> Callable[[], int]:
    """Figure 3 shape: dedicated EP, 16 threads on 12 Tigerton cores."""
    spec = AppSpec(bench="ep.C", n_threads=16, wait="yield",
                   total_compute_us=100_000 if quick else 1_000_000)
    return _scenario(spec, "speed", 12, engine)


def _fine_grained_barriers(quick: bool, engine: str) -> Callable[[], int]:
    """Figure 2 / cg.B shape: 4 ms barriers, the event-heaviest shape."""
    spec = AppSpec(bench="cg.B", n_threads=16, wait="yield",
                   total_compute_us=50_000 if quick else 200_000)
    return _scenario(spec, "speed", 12, engine)


def _multiprogrammed_hog(quick: bool, engine: str) -> Callable[[], int]:
    """Figure 5 shape: sleeping-wait EP sharing the machine with a hog."""
    spec = AppSpec(bench="ep.C", n_threads=8, wait="sleep",
                   total_compute_us=100_000 if quick else 500_000)
    return _scenario(spec, "speed", 8, engine, corunner=True)


def _yield_heavy_barriers(quick: bool, engine: str) -> Callable[[], int]:
    """Oversubscribed 1 ms-barrier yield loop: the sched_yield path.

    Twelve yielding threads on eight cores hit a barrier every
    millisecond, so nearly every dispatch exercises the yield
    re-insertion (max_vruntime) and slice-length (total_weight)
    aggregates this suite guards.
    """
    spec = AppSpec(bench="cg.B", n_threads=12, wait="yield",
                   total_compute_us=30_000 if quick else 150_000,
                   barrier_period_us=1_000)
    return _scenario(spec, "speed", 8, engine)


def _numa_barcelona(quick: bool, engine: str) -> Callable[[], int]:
    """NUMA shape: sp.A on Barcelona, node-scoped memory contention.

    Exercises the per-node mem-intensity aggregate (Barcelona's
    contention scope is the NUMA node) plus NUMA-aware pinning and the
    balancer's node fences.
    """
    spec = AppSpec(bench="sp.A", n_threads=12, wait="yield",
                   total_compute_us=60_000 if quick else 300_000)
    return _scenario(spec, "speed", 8, engine, machine="barcelona")


def _traced_run(quick: bool, engine: str) -> Callable[[], int]:
    """A fully traced run: the columnar recorder on the charge path."""
    spec = AppSpec(bench="cg.B", n_threads=16, wait="yield",
                   total_compute_us=50_000 if quick else 200_000)
    return _scenario(spec, "speed", 12, engine, trace=True)


#: name -> case builder; insertion order is report order
CASES: dict[str, Callable[[bool, str], Callable[[], int]]] = {
    "engine_throughput": _engine_throughput,
    "ep_dedicated": _ep_dedicated,
    "fine_grained_barriers": _fine_grained_barriers,
    "multiprogrammed_hog": _multiprogrammed_hog,
    "yield_heavy_barriers": _yield_heavy_barriers,
    "numa_barcelona": _numa_barcelona,
    "traced_run": _traced_run,
}


def bench_names() -> list[str]:
    return list(CASES)


def run_benches(
    quick: bool = False,
    rounds: Optional[int] = None,
    progress: Optional[Callable[[BenchResult], None]] = None,
    engine: str = "heap",
) -> list[BenchResult]:
    """Run every case ``rounds`` times; keep the best wall time.

    ``engine`` selects the event-dispatch backend for every case (see
    :mod:`repro.sim.backends`).  Backends are digest-equivalent, so the
    per-bench event counts must not move with this knob -- comparing a
    native payload against a heap baseline checks exactly that while
    the wall-time columns measure the backend speedup.
    """
    if rounds is None:
        rounds = 3
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1 (got {rounds})")
    results = []
    for name, build in CASES.items():
        round_fn = build(quick, engine)
        best: Optional[float] = None
        events = 0
        for _ in range(rounds):
            t0 = time.perf_counter()  # sim-lint: ignore[SIM003]
            events = round_fn()
            elapsed = time.perf_counter() - t0  # sim-lint: ignore[SIM003]
            if best is None or elapsed < best:
                best = elapsed
        result = BenchResult(name=name, wall_s=best or 0.0,
                             events=events, rounds=rounds)
        results.append(result)
        if progress is not None:
            progress(result)
    return results


# ----------------------------------------------------------------------
# profiling: repro bench --profile
# ----------------------------------------------------------------------
def profile_benches(
    quick: bool = False,
    top_n: int = 15,
    names: Optional[Sequence[str]] = None,
    engine: str = "heap",
) -> str:
    """Run each case once under cProfile; return a per-case report.

    Each case gets its own profile (one warm-up-free round) and a
    ``pstats`` table of the ``top_n`` functions by cumulative time.
    Wall times under the profiler are not comparable to ``run_benches``
    numbers -- instrumentation overhead is real -- so this path never
    writes a payload; it exists to show *where* a case spends its time.
    """
    import cProfile
    import io
    import pstats

    selected = list(CASES) if names is None else list(names)
    unknown = [n for n in selected if n not in CASES]
    if unknown:
        raise ValueError(
            f"unknown bench case(s) {unknown}: choose from {list(CASES)}"
        )
    sections = []
    for name in selected:
        round_fn = CASES[name](quick, engine)
        prof = cProfile.Profile()
        prof.enable()
        events = round_fn()
        prof.disable()
        buf = io.StringIO()
        stats = pstats.Stats(prof, stream=buf)
        stats.strip_dirs().sort_stats("cumulative").print_stats(top_n)
        sections.append(
            f"== {name} ({'quick' if quick else 'full'}, "
            f"{events} events) ==\n{buf.getvalue().rstrip()}"
        )
    return "\n\n".join(sections) + "\n"


# ----------------------------------------------------------------------
# payloads: BENCH_<label>.json
# ----------------------------------------------------------------------
def to_payload(
    results: list[BenchResult], label: str, quick: bool, engine: str = "heap"
) -> dict:
    if not re.fullmatch(r"[A-Za-z0-9_-]+", label):
        raise ValueError(
            f"invalid bench label {label!r}: labels become the "
            "BENCH_<label>.json filename, so only [A-Za-z0-9_-]+ is allowed"
        )
    return {
        "schema": BENCH_SCHEMA,
        "label": label,
        "quick": quick,
        "engine": engine,
        "benches": {
            r.name: {
                **asdict(r),
                "events_per_sec": round(r.events_per_sec, 1),
                "ns_per_event": round(r.ns_per_event, 1),
            }
            for r in results
        },
    }


def write_payload(payload: dict, out_dir: Union[str, Path] = ".") -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{payload['label']}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_payload(path: Union[str, Path]) -> dict:
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema {payload.get('schema')!r} "
            f"(this build reads schema {BENCH_SCHEMA})"
        )
    return payload


@dataclass
class Comparison:
    """Delta of one bench between two payloads.

    Wall time is hardware noise territory and gets a tolerance
    threshold; the dispatched-event count is deterministic, so *any*
    ``events_mismatch`` means simulated behaviour changed between the
    two checkouts -- a determinism regression, not a perf one.
    """

    name: str
    baseline_wall_s: float
    wall_s: float
    #: percent change; positive = slower than the baseline
    delta_pct: float
    regressed: bool
    baseline_events: int
    events: int
    events_mismatch: bool


def compare_payloads(
    baseline: dict, current: dict, threshold_pct: float = 25.0
) -> list[Comparison]:
    """Per-bench wall-time and event-count deltas vs ``baseline``.

    A bench regresses when it is more than ``threshold_pct`` percent
    slower than the baseline; it mismatches when its dispatched-event
    count differs at all.  Benches present in only one payload are
    skipped (new benches have no trajectory yet).  Comparing a quick
    run against a full baseline is refused: their workloads differ.

    Payloads recorded under *different engine backends* compare fine --
    deliberately so.  Backends are digest-equivalent, which makes the
    cross-engine event-count columns the engine parity tripwire, and
    the wall-time columns the backend speedup measurement.
    """
    if baseline.get("quick") != current.get("quick"):
        raise ValueError(
            "cannot compare a quick bench run against a non-quick baseline; "
            "regenerate the baseline with the same --quick flag"
        )
    out = []
    for name, cur in current["benches"].items():
        base = baseline["benches"].get(name)
        if base is None:
            continue
        old, new = base["wall_s"], cur["wall_s"]
        delta_pct = (new / old - 1.0) * 100.0 if old > 0 else 0.0
        out.append(Comparison(
            name=name,
            baseline_wall_s=old,
            wall_s=new,
            delta_pct=delta_pct,
            regressed=delta_pct > threshold_pct,
            baseline_events=base["events"],
            events=cur["events"],
            events_mismatch=base["events"] != cur["events"],
        ))
    return out
