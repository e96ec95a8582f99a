"""The benchmark's four workloads, their output checks and metrics.

Every workload is a list of operations generated from the seed and
resolved in *passes*: a figure workload resolves its whole grid once per
pass, ``serve-mixed`` completes a fixed number of jobs per client per
pass.  Every run makes a fixed number of passes, so a run does the same
work however fast the host or the program is, and traced counts repeat
exactly for a given seed.  The cold and audited figure grids draw new
seeds every pass, as the paper repeats each figure over many seeds.

Each operation runs under one engine, ``heap`` or ``native``.  Every
workload mixes both, which is what gives ``figure_heap_s`` and
``figure_native_s`` a value on each of them.

In an untraced run a calibration sample (see :mod:`perfbench.calib`)
follows every few tens of milliseconds of timed work, outside the
timed spans.  A figure operation is scaled by the samples on either
side of it, a pass's total by all of the pass's samples.  Served jobs
overlap and cannot be bracketed one by one: a ``serve-mixed`` pass is
short, and its jobs are scaled by the samples before and after it.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.analysis.sanitizer import sanitize_stored, trace_digest
from repro.apps.workloads import AppSpec
from repro.core.speed_balancer import SpeedBalancerConfig
from repro.harness.parallel import RunSpec, run_spec
from repro.harness.scenarios import CorunnerSpec
from repro.metrics.export import result_from_dict
from repro.serve import ServeClient, ServeError, ShardedStore
from repro.service import JobFailedError, JobService
from repro.sim.backends import backend_available
from repro.store import ResultStore, spec_digest

from perfbench import calib, probe

ENGINES = ("heap", "native")

_now = time.perf_counter


class CheckError(Exception):
    """A workload produced wrong output; the run must not report."""


class BenchError(Exception):
    """The benchmark cannot run here (e.g. no native backend)."""


def require_native() -> None:
    """Build (once per source change) and load the native engine core."""
    if not backend_available("native"):
        raise BenchError(
            "the native engine backend is unavailable (no working C "
            "compiler); this benchmark times heap against native and "
            "will not substitute heap for it"
        )


@dataclass
class Op:
    """One timed operation: a cell resolved or a job served."""

    engine: str
    seconds: float
    #: host factor of the calibration samples on either side of the op,
    #: when it has samples of its own; None: its pass's factor
    factor: Optional[float] = None


@dataclass
class Pass:
    #: seconds of timed work (calibration samples excluded)
    wall_s: float
    ops: list[Op] = field(default_factory=list)
    #: calibration samples beside the pass's work (untraced runs only)
    samples: list[float] = field(default_factory=list)

    @property
    def factor(self) -> float:
        """Host-speed factor of the pass; 1.0 when not calibrated."""
        return calib.factor(self.samples) if self.samples else 1.0

    def scaled(self, op: Op) -> float:
        """An op's time, host-normalised."""
        return op.seconds * (op.factor or self.factor)

    def engine_s(self, engine: str) -> float:
        return sum(self.scaled(op) for op in self.ops if op.engine == engine)


def _canon(result) -> str:
    return hashlib.sha256(result.canonical_json().encode()).hexdigest()


def _cell_specs(app: AppSpec, traced: bool, seed: int, **kw) -> dict[str, list[RunSpec]]:
    """One figure cell -- a configuration at one seed -- under each engine,
    as the spec list one ``JobService.submit`` resolves.  Traced cells
    carry the probe hooks."""
    params = dict(kw.pop("params", {}))
    if traced:
        app = probe.TimedApp(app)
        params["instrument"] = probe.instrument
    return {
        e: [RunSpec.make(kw["machine"], app, balancer=kw["balancer"],
                         cores=kw["cores"], seed=seed, engine=e, **params)]
        for e in ENGINES
    }


class Workload:
    """Shared plumbing: a private work directory and the pass protocol."""

    name = ""
    #: whether passes simulate in-process (gets the detailed traced pass)
    simulates = True
    #: passes of an untraced run, sized to take about 15-18 s with their
    #: calibration samples on a slow 2-vCPU host; a fixed count keeps a
    #: run's work the same on a fast host and a slow one
    passes = 1
    #: light traced passes; serve-mixed makes enough for a valid p99
    traced_passes = 1
    #: set by untraced runs: take calibration samples (see :meth:`tick`)
    calibrated = False

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.failed = 0
        self.entries_at_start = 0
        self._dirs = 0
        self.passes_made = 0
        #: calibration samples not yet handed to a pass
        self.samples: list[float] = []

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"store-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def store(self, root: Path, tracer: Optional[probe.Tracer]) -> ResultStore:
        return ResultStore(root) if tracer is None else probe.TimedStore(root, tracer)

    def setup(self, tracer: Optional[probe.Tracer] = None) -> None:
        """Prepare the passes.  A run may set up several times to time
        set-up; each call starts over from the seed and replaces the
        previous set-up."""
        self.close()
        self.rng = random.Random(f"{self.name}:{self.seed}")
        self.passes_made = 0
        require_native()
        # load the lazily imported modules of the result path before
        # anything is timed
        for engine in ENGINES:
            run_spec(RunSpec.make(
                "tigerton", AppSpec(n_threads=2, total_compute_us=1_000),
                balancer="speed", cores=2, seed=0, engine=engine,
            ))

    def run_pass(self, tracer: Optional[probe.Tracer] = None) -> Pass:
        raise NotImplementedError

    def tick(self, n: int = 1) -> None:
        """Take ``n`` calibration samples now, in an untraced run."""
        if self.calibrated:
            for _ in range(n):
                self.samples.append(calib.kernel())

    def around(self, at: int) -> Optional[float]:
        """Host factor of the samples on either side of work that began
        once the pass had taken ``at`` samples; None when uncalibrated."""
        window = self.samples[max(0, at - 1):at + 1]
        return calib.factor(window) if window else None

    def finish(self, ops: list[Op], wall_s: Optional[float] = None) -> Pass:
        """The pass made of ``ops``, with the samples taken since the
        last one; its work time is the ops' own unless given."""
        samples, self.samples = self.samples, []
        if wall_s is None:
            wall_s = sum(op.seconds for op in ops)
        return Pass(wall_s, ops, samples)

    def submit(self, service: JobService, specs: list[RunSpec], tracer,
               trace: bool = False) -> Optional[tuple[list, float]]:
        """One timed ``JobService.submit``: (results, seconds), or None
        when it failed (counted in :attr:`failed`)."""
        if tracer is not None:
            for spec in specs:
                with tracer.span("store.digest"):
                    spec_digest(spec)
        t = _now()
        try:
            if tracer is None:
                out = service.submit(specs, trace=trace)
            else:
                with tracer.span("service.submit"):
                    out = service.submit(specs, trace=trace)
        except JobFailedError:
            self.failed += 1
            return None
        elapsed = _now() - t
        if tracer is not None:
            tracer.counts["service.submits"] += 1
            tracer.counts["service.specs"] += len(specs)
        return out, elapsed

    def final_check(self) -> None:
        """Output checks that need the whole run (after the last pass)."""

    def extra_layers(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        """Stop every process the workload started; idempotent."""


# ----------------------------------------------------------------------
# figure-cold: Fig. 3 + Fig. 4 cells regenerated into an empty store
# ----------------------------------------------------------------------
def _alternating(cells):
    """``(cell, engine, specs)`` under both engines; which engine goes
    first alternates cell by cell, so drift in host speed hits both alike."""
    for i, (cell, by_engine) in enumerate(cells):
        for engine in (ENGINES if i % 2 == 0 else ENGINES[::-1]):
            yield cell, engine, by_engine[engine]


class FigureCold(Workload):
    name = "figure-cold"
    passes = 8

    #: Fig. 3 (EP, 16 threads, yield) and Fig. 4 (NAS, 16 threads, yield)
    #: configurations, one non-divisor core count each, all four counts
    #: used.  How long a run simulates varies with the seed by 25-85% under
    #: Linux load balancing and DWRR, by under 10% under SPEED at 6 cores,
    #: and not at all when pinned or under ULE; the chaotic balancers get
    #: the core counts where that variation is smallest in events, so the
    #: grid's cost moves little from seed to seed.
    FIG3 = (("tigerton", "speed", 6), ("tigerton", "load", 14),
            ("tigerton", "dwrr", 12), ("tigerton", "ule", 10),
            ("barcelona", "speed", 10), ("barcelona", "load", 12),
            ("barcelona", "dwrr", 14), ("barcelona", "ule", 6))
    FIG4 = tuple(
        (bench, bal, cores)
        for bench, load_cores in (("bt.A", 14), ("cg.B", 14), ("ft.B", 12),
                                  ("is.C", 12), ("sp.A", 14))
        for bal, cores in (("speed", 6), ("load", load_cores), ("pinned", 10))
    )

    def grid(self, traced: bool) -> list[tuple[str, dict[str, list[RunSpec]]]]:
        """The cells of the next pass, each at a seed of its own."""
        rng = random.Random(f"{self.name}:grid:{self.seed}:{self.passes_made}")
        fig3 = self.FIG3[:2] if self.tiny else self.FIG3
        fig4 = self.FIG4[:3] if self.tiny else self.FIG4
        cells = []
        for machine, bal, cores in fig3:
            app = AppSpec(bench="ep.C", n_threads=16, wait="yield", total_compute_us=40_000)
            cells.append((f"fig3/{machine}/{bal}/{cores}", _cell_specs(
                app, traced, rng.randrange(1 << 30), machine=machine, balancer=bal,
                cores=cores)))
        for bench, bal, cores in fig4:
            app = AppSpec(bench=bench, n_threads=16, wait="yield", total_compute_us=20_000)
            cells.append((f"fig4/{bench}/{bal}/{cores}", _cell_specs(
                app, traced, rng.randrange(1 << 30), machine="tigerton", balancer=bal,
                cores=cores)))
        return cells

    def run_pass(self, tracer=None) -> Pass:
        cells = self.grid(tracer is not None)
        self.passes_made += 1
        store = self.store(self.fresh_dir(), tracer)
        service = JobService(store)
        results: dict[str, dict[str, list]] = {}
        ops = []
        for cell, engine, specs in _alternating(cells):
            if tracer is not None:
                tracer.op = f"{cell}/{engine}"
            at = len(self.samples)
            done = self.submit(service, specs, tracer)
            self.tick()
            if done is not None:
                ops.append(Op(engine, done[1], self.around(at)))
                results.setdefault(cell, {})[engine] = done[0]
        if tracer is not None:
            tracer.end_run()
            tracer.counts["service.executed"] += service.executed
        check_engines_agree(results)
        shutil.rmtree(store.root, ignore_errors=True)
        return self.finish(ops)


def check_engines_agree(results: dict[str, dict[str, list]]) -> None:
    """Every cell's heap and native results are byte-identical."""
    for cell, by_engine in sorted(results.items()):
        if set(by_engine) != set(ENGINES):
            continue  # a failed op, already counted
        for heap, native in zip(by_engine["heap"], by_engine["native"]):
            if heap.canonical_json() != native.canonical_json():
                raise CheckError(
                    f"{cell}: heap and native results differ "
                    f"({_canon(heap)[:12]} vs {_canon(native)[:12]})"
                )


# ----------------------------------------------------------------------
# figure-warm: every cell a hit against a store populated in set-up
# ----------------------------------------------------------------------
class FigureWarm(Workload):
    name = "figure-warm"
    simulates = False
    passes = 100

    def grid(self) -> list[list[RunSpec]]:
        """Full-size Fig. 3/4 axes, each configuration at one seed with
        cheap compute; one cell per configuration.  Set-up is timed three
        times per run, so the store stays small: a hit costs the same
        whatever the store size."""
        configs = []
        cores3 = range(1, 17, 5) if self.tiny else range(1, 17)
        for machine in ("tigerton", "barcelona"):
            for bal in ("speed", "load", "dwrr", "ule"):
                for cores in cores3:
                    configs.append((machine, "ep.C", bal, cores))
        for bench in ("bt.A", "cg.B", "ft.B", "is.C", "sp.A")[: 1 if self.tiny else 5]:
            for cores in (6, 10, 12, 14):
                for bal in ("speed", "load", "pinned"):
                    configs.append(("tigerton", bench, bal, cores))
        return [
            [RunSpec.make(machine, AppSpec(bench=bench, n_threads=16, wait="yield",
                                           total_compute_us=250),
                          balancer=bal, cores=cores,
                          seed=self.rng.randrange(1 << 30), engine=ENGINES[i % 2])]
            for i, (machine, bench, bal, cores) in enumerate(configs)
        ]

    def setup(self, tracer=None) -> None:
        super().setup()
        self.cells = self.grid()
        self.root = self.fresh_dir()
        store = self.store(self.root, tracer)
        self.expected = []
        for i, specs in enumerate(self.cells):
            for spec in specs:
                result = run_spec(spec)
                store.put(spec, result)
                self.expected.append(_canon(result))
            if i % 4 == 3:
                self.tick()
        self.entries_at_start = len(store.digests())
        if self.entries_at_start != len(self.expected):
            raise CheckError(
                f"figure-warm: set-up stored {self.entries_at_start} entries "
                f"for {len(self.expected)} distinct runs"
            )

    #: cells between two calibration samples of a pass
    CHUNK = 47

    def run_pass(self, tracer=None) -> Pass:
        # a fresh handle and service each pass: nothing carries over in memory
        service = JobService(self.store(self.root, tracer))
        got = []
        ops = []
        starts = []
        for i, specs in enumerate(self.cells):
            if tracer is not None:
                tracer.op = f"cell{i}"
            at = len(self.samples)
            done = self.submit(service, specs, tracer)
            if i % self.CHUNK == self.CHUNK - 1 or i == len(self.cells) - 1:
                self.tick()
            if done is None:
                got.extend([None] * len(specs))
                continue
            ops.append(Op(specs[0].engine, done[1]))
            starts.append(at)
            got.extend(done[0])
        for op, at in zip(ops, starts):
            op.factor = self.around(at)
        if tracer is not None:
            tracer.counts["service.executed"] += service.executed
        check_warm(service.executed, got, self.expected)
        return self.finish(ops)


def check_warm(executed: int, got: list, expected: list[str]) -> None:
    """A warm pass simulated nothing and returned what set-up stored."""
    if executed:
        raise CheckError(
            f"figure-warm: {executed} cell(s) were recomputed instead of "
            "read back; the stored entries did not verify"
        )
    for i, (result, want) in enumerate(zip(got, expected)):
        if result is not None and _canon(result) != want:
            raise CheckError(f"figure-warm: cell {i} differs from what set-up stored")


# ----------------------------------------------------------------------
# figure-audit: traced Fig. 2 / Fig. 5 regeneration + sanitizer
# ----------------------------------------------------------------------
class FigureAudit(Workload):
    name = "figure-audit"
    passes = 7

    def grid(self, traced: bool) -> list[tuple[str, dict[str, list[RunSpec]]]]:
        """Fig. 2 (3 threads on 2 cores, barrier period x balance interval)
        and Fig. 5 (EP with sleeping waiters beside a cpu-hog), each cell
        at a seed of its own for the next pass."""
        rng = random.Random(f"{self.name}:grid:{self.seed}:{self.passes_made}")
        cells = []
        periods = (440, 27_000) if self.tiny else (53, 440, 3_400, 27_000, 216_000)
        intervals = (20_000,) if self.tiny else (20_000, 100_000, 400_000)
        for period in periods:
            for interval in intervals:
                app = AppSpec(bench="ep.C", n_threads=3, wait="yield",
                              total_compute_us=40_000, barrier_period_us=period)
                cells.append((f"fig2/{period}/{interval}", _cell_specs(
                    app, traced, rng.randrange(1 << 30), machine="tigerton",
                    balancer="speed", cores=2,
                    params={"speed_config": SpeedBalancerConfig(interval_us=interval)})))
        for bal in ("speed", "load"):
            for cores in ((4,) if self.tiny else (2, 4, 8, 12, 16)):
                app = AppSpec(bench="ep.C", n_threads=16, wait="sleep",
                              total_compute_us=60_000)
                cells.append((f"fig5/{bal}/{cores}", _cell_specs(
                    app, traced, rng.randrange(1 << 30), machine="tigerton",
                    balancer=bal, cores=cores,
                    params={"corunner_factories": (CorunnerSpec("cpu-hog", core=0),)})))
        return cells

    def run_pass(self, tracer=None) -> Pass:
        """Regenerate every cell with traces, then sanitize every trace."""
        cells = self.grid(tracer is not None)
        self.passes_made += 1
        store = self.store(self.fresh_dir(), tracer)
        service = JobService(store)
        results: dict[str, dict[str, list]] = {}
        done: list[tuple[str, str, list[str], float, int]] = []
        findings = []
        for i, (cell, engine, specs) in enumerate(_alternating(cells)):
            if tracer is not None:
                tracer.op = f"{cell}/{engine}"
            at = len(self.samples)
            submitted = self.submit(service, specs, tracer, trace=True)
            if i % 2 == 1:
                self.tick()
            if submitted is not None:
                done.append((cell, engine, [spec_digest(s) for s in specs],
                             submitted[1], at))
                results.setdefault(cell, {})[engine] = submitted[0]
        if tracer is not None:
            tracer.end_run()
        ops = []
        parts = []  # per op: (submit s, its samples index, sanitize s, its index)
        for cell, engine, digests, submit_s, submit_at in done:
            at = len(self.samples)
            t = _now()
            for digest in digests:
                if tracer is None:
                    findings.extend(sanitize_stored(store, digest))
                else:
                    tracer.op = f"{cell}/{engine}"
                    with tracer.span("analysis.sanitize"):
                        findings.extend(sanitize_stored(store, digest))
            sanitize_s = _now() - t
            ops.append(Op(engine, submit_s + sanitize_s))
            parts.append((submit_s, submit_at, sanitize_s, at))
            if len(ops) % 4 == 0 or len(ops) == len(done):
                self.tick()
        if self.calibrated:
            # each half of an op is scaled by the samples beside it
            for op, (sub_s, sub_at, san_s, san_at) in zip(ops, parts):
                scaled = sub_s * self.around(sub_at) + san_s * self.around(san_at)
                op.factor = scaled / op.seconds
        if tracer is not None:
            tracer.counts["service.executed"] += service.executed
            tracer.counts["analysis.findings"] += len(findings)
            tracer.counts["trace.archive_bytes"] += sum(
                p.stat().st_size for p in store.root.rglob("trace.json.gz"))
        if findings:
            raise CheckError(
                f"figure-audit: {len(findings)} sanitizer finding(s), first: "
                f"{findings[0]}"
            )
        check_engines_agree(results)
        check_traces_agree(store, cells)
        shutil.rmtree(store.root, ignore_errors=True)
        return self.finish(ops)


def check_traces_agree(store: ResultStore, cells) -> None:
    """Every archived trace loads, and heap and native traces agree."""
    for cell, by_engine in cells:
        for heap, native in zip(by_engine["heap"], by_engine["native"]):
            digests = []
            for spec in (heap, native):
                trace = store.load_trace(spec_digest(spec))
                if trace is None:
                    raise CheckError(f"{cell}/{spec.engine}: no archived trace")
                digests.append(trace_digest(trace))
            if digests[0] != digests[1]:
                raise CheckError(f"{cell}: heap and native traces differ")


# ----------------------------------------------------------------------
# serve-mixed: a repro serve daemon under two closed-loop clients
# ----------------------------------------------------------------------
TENANTS = ("a", "b")


def serve_spec(seed: int, engine: str) -> RunSpec:
    app = AppSpec(bench="ep.C", n_threads=4, wait="yield", total_compute_us=20_000)
    return RunSpec.make("tigerton", app, balancer="speed", cores=2, seed=seed,
                        engine=engine)


class ServeMixed(Workload):
    name = "serve-mixed"
    simulates = False
    passes = 36
    traced_passes = 52
    #: calibration samples after each pass (about a tenth of its time);
    #: a pass is scaled by these and the previous pass's
    SAMPLES = 3

    def setup(self, tracer=None) -> None:
        super().setup()
        n_stored = 40 if self.tiny else 500
        self.jobs_per_client = 6 if self.tiny else 10
        self.stored = {
            e: [serve_spec(self.rng.randrange(1 << 30), e) for _ in range(n_stored // 2)]
            for e in ENGINES
        }
        self.root = self.fresh_dir()
        # the daemon with one worker owns exactly one shard
        shard = ShardedStore(self.root, 1).shards[0]
        store = self.store(shard.root, tracer)
        for i, spec in enumerate(self.stored["heap"] + self.stored["native"]):
            store.put(spec, run_spec(spec))
            if i % 8 == 7:
                self.tick()
        self.entries_at_start = len(store.digests())
        self.log = self.workdir / "serve.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        rate = "1000000"
        cmd = [sys.executable, "-m", "repro", "serve", "--store", str(self.root),
               "--port", "0", "--workers", "1"]
        for tenant in TENANTS:
            cmd += ["--tenant", f"{tenant}:1:{rate}:{rate}:4096"]
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                start_new_session=True,
            )
        self.client = ServeClient(self._wait_listening())
        self.client.healthz()
        self.completed = {t: [] for t in TENANTS}
        self.fresh = {t: 0 for t in TENANTS}
        self.sent = {t: 0 for t in TENANTS}
        self.plan = {t: [] for t in TENANTS}
        self.rngs = {t: random.Random(f"{self.name}:{self.seed}:{t}") for t in TENANTS}
        # fresh seeds lie above every stored seed (those are < 2**30)
        self.fresh_base = (1 << 30) + 2 * self.rng.randrange(1 << 28)
        self.served: list[RunSpec] = []
        self.lock = threading.Lock()
        #: the previous pass's calibration samples
        self.last_samples: list[float] = []

    def _wait_listening(self) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"repro serve exited early:\n{self.log.read_text()}")
            for line in self.log.read_text().splitlines():
                if "listening on " in line:
                    return line.split("listening on ", 1)[1].split()[0]
            time.sleep(0.02)
        raise BenchError("repro serve did not start listening within 60 s")

    #: request kinds per block of ten: 60% fresh, 20% stored by set-up,
    #: 20% resubmissions of digests this run already completed.  Hits take
    #: 2-4 ms and fresh jobs 15-35 ms; with 40% fresh the median fell on
    #: the hits' sparse upper tail and moved by a quarter from run to run,
    #: with 60% both the median and p90 fall inside the fresh jobs' mode.
    BLOCK = ("fresh",) * 6 + ("stored",) * 2 + ("again",) * 2

    def _next_spec(self, tenant: str) -> RunSpec:
        """The client's next request: kinds in exact proportion per block
        of ten (seeded order), engines alternating job by job."""
        rng = self.rngs[tenant]
        if not self.plan[tenant]:
            block = list(self.BLOCK)
            rng.shuffle(block)
            self.plan[tenant] = block
        kind = self.plan[tenant].pop()
        self.sent[tenant] += 1
        engine = ENGINES[self.sent[tenant] % 2]
        if kind == "stored":
            return rng.choice(self.stored[engine])
        done = [s for s in self.completed[tenant][-64:] if s.engine == engine]
        if kind == "again" and done:
            return rng.choice(done)
        # the two clients' fresh seeds differ
        self.fresh[tenant] += 1
        seed = self.fresh_base + 2 * self.fresh[tenant] + TENANTS.index(tenant)
        return serve_spec(seed, engine)

    def _client(self, tenant: str, n: int, ops: list, tracer) -> None:
        for k in range(n):
            spec = self._next_spec(tenant)
            want = spec_digest(spec)
            t0 = _now()
            try:
                view = self.client.submit([spec], tenant=tenant)["jobs"][0]
                t1 = _now()
                if view["digest"] != want:
                    raise CheckError(f"daemon keyed a job {view['digest'][:12]}, "
                                     f"expected {want[:12]}")
                state = view["state"]
                for event, data in self.client.events(want):
                    if event == "end":
                        state = data.get("state", state)
                t2 = _now()
                body = self.client.result(want)
                t3 = _now()
            except ServeError:
                with self.lock:
                    self.failed += 1
                continue
            if state not in ("done", "cached"):
                raise CheckError(f"served job {want[:12]} ended {state!r}")
            if body.get("digest") != want:
                raise CheckError(f"result body names {body.get('digest')!r}, expected {want}")
            self.completed[tenant].append(spec)
            with self.lock:
                ops.append(Op(spec.engine, t3 - t0))
                self.served.append(spec)
                if tracer is not None:
                    # client threads share the tracer: spans are appended
                    # whole, under the lock, instead of through its stack
                    op_id = f"{tenant}/{k}"
                    tracer.spans.append(["serve.post", t0, t1, -1, op_id])
                    tracer.spans.append(["serve.sse", t1, t2, -1, op_id])
                    tracer.spans.append(["serve.get", t2, t3, -1, op_id])

    def run_pass(self, tracer=None) -> Pass:
        ops: list[Op] = []
        errors: list[BaseException] = []

        def client(tenant):
            try:
                self._client(tenant, self.jobs_per_client, ops, tracer)
            except BaseException as exc:  # reported on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(t,)) for t in TENANTS]
        start = _now()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        wall = _now() - start
        if errors:
            raise errors[0]
        # the daemon is idle now: every job of the pass has ended
        self.tick(self.SAMPLES)
        done = self.finish(ops, wall)
        after = done.samples
        done.samples = self.last_samples + after
        self.last_samples = after
        return done

    def final_check(self) -> None:
        """A seeded sample of served results equals direct ``run_spec``."""
        rng = random.Random(f"{self.name}:sample:{self.seed}")
        unique = sorted({spec_digest(s): s for s in self.served}.items())
        for digest, spec in rng.sample(unique, min(8, len(unique))):
            body = self.client.result(digest)
            served = result_from_dict(body["result"]).canonical_json()
            if served != run_spec(spec).canonical_json():
                raise CheckError(f"served result {digest[:12]} differs from run_spec")

    def extra_layers(self) -> dict[str, float]:
        m = self.client.metrics()
        return {
            "serve.admitted": m["admitted"],
            "serve.rejected": m["rejected"],
            "serve.deduped": m["deduped"],
            "serve.cached": m["cached"],
            "serve.executed": m["executed"],
            "serve.failed": m["failed"],
            "serve.hit_ratio": m["cache_hit_ratio"],
            "serve.worker_utilization": m["workers"]["utilization"],
            "serve.daemon_p50_ms": 1e3 * m["latency"]["p50_s"],
            "serve.daemon_p99_ms": 1e3 * m["latency"]["p99_s"],
        }

    def close(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)  # graceful drain
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        # the daemon's worker is in the daemon's session; make sure it is gone
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc = None


WORKLOADS = {
    w.name: w for w in (FigureCold, FigureWarm, ServeMixed, FigureAudit)
}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def pct(samples: list[float], p: int) -> float:
    """Linear-interpolated percentile ``p`` (1..99); 0.0 without samples."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(passes: list[Pass], setup_s: float, rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of an untraced run.

    Every time is host-normalised (see calib): an operation by the
    samples beside it where it has its own, otherwise by its pass's.
    The figure times and throughput are medians over the run's passes,
    and the latency percentiles are taken over every operation of the
    run.
    """
    latencies = [p.scaled(op) for p in passes for op in p.ops]
    figure = statistics.median(p.wall_s * p.factor for p in passes)
    heap = statistics.median(p.engine_s("heap") for p in passes)
    native = statistics.median(p.engine_s("native") for p in passes)
    rate = statistics.median(len(p.ops) / (p.wall_s * p.factor) for p in passes)
    return {
        "setup_s": setup_s,
        "figure_s": figure,
        "figure_heap_s": heap,
        "figure_native_s": native,
        "latency_p50_ms": 1e3 * pct(latencies, 50),
        "latency_p90_ms": 1e3 * pct(latencies, 90),
        "jobs_per_s": rate,
        "peak_rss_mb": rss_mb,
    }


def per_layer(
    wl: Workload,
    base: Pass,
    light: probe.Tracer,
    light_pass: Pass,
    detailed: Optional[probe.Tracer],
    detailed_pass: Optional[Pass],
) -> dict[str, float]:
    """Layer metrics: times from the light pass, counts from the detailed one."""
    lc, ls = light.counts, light.seconds
    dc = detailed.counts if detailed is not None else lc
    ds = detailed.seconds if detailed is not None else ls
    heap_events = lc["sim.heap.events"]
    native_events = lc["sim.native.events"]
    put_ms = [1e3 * d for d in probe.durations(light, "store.put")]
    cells = probe.durations(light, "harness.run_spec")
    specs = lc["service.specs"]
    executed = lc["service.executed"]
    wakes = dc["core"]
    m = {
        "sim.events": dc["sim.events"],
        "sim.scheduled": dc["sim.scheduled"],
        "sim.live_ratio": dc["sim.events"] / dc["sim.scheduled"] if dc["sim.scheduled"] else 0.0,
        "sim.heap.ns_per_event": 1e9 * ls["sim.heap.run_s"] / heap_events if heap_events else 0.0,
        "sim.native.ns_per_event": 1e9 * ls["sim.native.run_s"] / native_events if native_events else 0.0,
        "sim.native.fused_ratio": lc["sim.native.fused"] / native_events if native_events else 0.0,
        "sched.core_events": dc["sched"],
        "sched.core_event_s": ds["sched"],
        "sched.dispatches": dc["sched.dispatches"],
        "sched.context_switches": dc["sched.context_switches"],
        "balance.ticks": dc["balance"],
        "balance.tick_s": ds["balance"],
        "balance.attempts": dc["balance.attempts"],
        "balance.pulls": dc["balance.pulls"],
        "core.wakes": wakes,
        "core.wake_s": ds["core"],
        "core.pulls": dc["core.pulls"],
        "core.pull_ratio": dc["core.pulls"] / wakes if wakes else 0.0,
        "apps.next_action_calls": dc["apps.next_action"],
        "apps.next_action_s": ds["apps.next_action"],
        "system.wake_events": dc["wake"],
        "system.migrations": dc["system.migrations"],
        "trace.segments": dc["trace.segments"],
        "trace.migration_events": dc["trace.migration_events"],
        "trace.record_s": ds["trace.record"],
        "trace.archive_bytes": lc["trace.archive_bytes"],
        "store.entries_at_start": wl.entries_at_start,
        "store.puts": len(put_ms),
        "store.put_ms_p50": pct(put_ms, 50),
        "store.put_ms_p90": pct(put_ms, 90),
        "store.gets": len(probe.durations(light, "store.get")),
        "store.get_ms_p50": 1e3 * pct(probe.durations(light, "store.get"), 50),
        "store.digest_us_p50": 1e6 * pct(probe.durations(light, "store.digest"), 50),
        "store.trace_load_ms_p50": 1e3 * pct(probe.durations(light, "store.load_trace"), 50),
        "service.submits": lc["service.submits"],
        "service.executed": executed,
        "service.hit_ratio": (specs - executed) / specs if specs else 0.0,
        "service.self_s": probe.self_seconds(light, "service.submit"),
        "harness.cells": lc["harness.cells"],
        "harness.cell_s_p50": pct(cells, 50),
        "harness.cell_s_p90": pct(cells, 90),
        "analysis.sanitize_s": sum(probe.durations(light, "analysis.sanitize")),
        "analysis.findings": lc["analysis.findings"],
    }
    post = [1e3 * d for d in probe.durations(light, "serve.post")]
    sse = [1e3 * d for d in probe.durations(light, "serve.sse")]
    get = [1e3 * d for d in probe.durations(light, "serve.get")]
    m.update({
        "serve.submit_ms_p50": pct(post, 50),
        "serve.submit_ms_p99": pct(post, 99),
        "serve.wait_ms_p50": pct(sse, 50),
        "serve.wait_ms_p99": pct(sse, 99),
        "serve.result_ms_p50": pct(get, 50),
    })
    # the daemon's own counters; only serve-mixed has a daemon to ask
    m.update(dict.fromkeys(
        ("serve.admitted", "serve.rejected", "serve.deduped", "serve.cached",
         "serve.executed", "serve.failed", "serve.hit_ratio",
         "serve.worker_utilization", "serve.daemon_p50_ms", "serve.daemon_p99_ms"),
        0.0))
    m.update(wl.extra_layers())
    if detailed_pass is not None:
        m["bench.trace_overhead"] = detailed_pass.wall_s / base.wall_s
    else:
        m["bench.trace_overhead"] = light_pass.wall_s / (wl.traced_passes * base.wall_s)
    return m
