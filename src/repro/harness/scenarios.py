"""Named scenarios: the configurations behind each figure and table.

Each function returns plain data (dicts / result objects) so the
benchmark harness can both assert on shapes and print paper-style
output.  Durations are scaled down from the paper's 2-80 s runs (see
``workloads`` module docstring); every scaling choice is recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.apps.barriers import WaitPolicy
from repro.apps.multiprogram import CpuHog, MakeWorkload
from repro.apps.workloads import WAIT_MODES, AppSpec, ep_app, make_nas_app
from repro.core.speed_balancer import SpeedBalancerConfig
from repro.harness.experiment import repeat_run, run_app
from repro.metrics.results import RepeatedResult
from repro.sched.task import WaitMode

__all__ = [
    "WAIT_POLICIES",
    "CorunnerSpec",
    "ScenarioSmoke",
    "ep_speedup_series",
    "balance_interval_sweep",
    "npb_improvement",
    "cpu_hog_series",
    "make_share_series",
    "scenario_smokes",
]

#: wait-policy shorthand used across scenarios
WAIT_POLICIES: dict[str, WaitPolicy] = {
    "yield": WaitPolicy(mode=WaitMode.YIELD),
    "sleep": WaitPolicy(mode=WaitMode.SLEEP),
    "spin": WaitPolicy(mode=WaitMode.SPIN),
    "omp-default": WaitPolicy.omp_default(),
    "omp-infinite": WaitPolicy.omp_infinite(),
}


@dataclass(frozen=True)
class CorunnerSpec:
    """Declarative, picklable co-runner description.

    The co-runner analogue of :class:`~repro.apps.workloads.AppSpec`:
    callable with a :class:`~repro.system.System` (the
    ``corunner_factories`` protocol of :func:`run_app`), but a frozen
    dataclass of plain values, so scenario configurations that share
    the machine with a cpu-hog or ``make -j`` can cross process
    boundaries and key content-addressed store entries.
    """

    kind: str  #: "cpu-hog" | "make-j"
    core: int = 0  #: pin core of the cpu-hog
    j: int = 16  #: parallelism of the make workload
    jobs: Optional[int] = None  #: total make jobs (default 4*j)

    def build(self, system):
        if self.kind == "cpu-hog":
            return CpuHog(system, core=self.core)
        if self.kind == "make-j":
            jobs = self.jobs if self.jobs is not None else 4 * self.j
            return MakeWorkload(system, j=self.j, jobs=jobs)
        raise ValueError(
            f"unknown co-runner kind {self.kind!r}; expected 'cpu-hog' or 'make-j'"
        )

    __call__ = build


def _app_factory(
    wait: str,
    n_threads: int,
    total_compute_us: int,
    bench: str = "ep.C",
    barrier_period_us: Optional[int] = None,
):
    """An :class:`AppSpec` when the wait policy is expressible as one
    (storable + picklable), else an equivalent closure.

    The two build byte-identical applications for the plain wait modes
    (``AppSpec.build`` constructs the same ``WaitPolicy``/app); the
    closure fallback covers the OMP-style policies (``omp-default``,
    ``omp-infinite``) that carry extra spin parameters -- those run
    fine serially but cannot key a store entry.
    """
    if wait in WAIT_MODES:
        return AppSpec(
            bench=bench,
            n_threads=n_threads,
            wait=wait,
            total_compute_us=total_compute_us,
            barrier_period_us=barrier_period_us,
        )

    def factory(system):
        if barrier_period_us is not None:
            return ep_app(
                system,
                n_threads=n_threads,
                wait_policy=WAIT_POLICIES[wait],
                total_compute_us=total_compute_us,
                barrier_period_us=barrier_period_us,
            )
        return make_nas_app(
            system,
            bench,
            n_threads=n_threads,
            wait_policy=WAIT_POLICIES[wait],
            total_compute_us=total_compute_us,
        )

    return factory


# ----------------------------------------------------------------------
# Figure 3: EP speedup vs core count
# ----------------------------------------------------------------------
def ep_speedup_series(
    machine: str = "tigerton",
    balancer: str = "speed",
    wait: str = "yield",
    core_counts: Iterable[int] = range(1, 17),
    n_threads: int = 16,
    one_per_core: bool = False,
    seeds: Iterable[int] = range(5),
    total_compute_us: int = 1_000_000,
    store=None,
) -> dict[int, RepeatedResult]:
    """EP compiled with 16 threads, run on 1..16 cores (Figure 3).

    ``one_per_core`` instead runs as many threads as cores, pinned --
    the paper's ideal-scaling reference line.  ``store`` makes the
    series incremental: cells already in the content-addressed store
    are served from it (see docs/store.md).
    """
    out: dict[int, RepeatedResult] = {}
    for n_cores in core_counts:
        threads = n_cores if one_per_core else n_threads
        per_thread = total_compute_us * n_threads // threads
        out[n_cores] = repeat_run(
            machine,
            _app_factory(wait, threads, per_thread),
            balancer="pinned" if one_per_core else balancer,
            cores=n_cores,
            seeds=seeds,
            store=store,
        )
    return out


# ----------------------------------------------------------------------
# Figure 2: balance interval vs synchronization granularity
# ----------------------------------------------------------------------
def balance_interval_sweep(
    barrier_periods_us: Sequence[int] = (53, 440, 3400, 27_000, 216_000),
    balance_intervals_us: Sequence[int] = (20_000, 50_000, 100_000, 200_000, 400_000),
    total_compute_us: int = 500_000,
    n_threads: int = 3,
    n_cores: int = 2,
    seeds: Iterable[int] = range(3),
    machine: str = "tigerton",
    store=None,
) -> dict[tuple[int, int], RepeatedResult]:
    """Three threads on two cores, EP with barriers (Figure 2).

    Keys are ``(barrier_period_us, balance_interval_us)``; the paper's
    x-axis is the computation between barriers, one line per balance
    interval, y-axis the slowdown vs one thread per core.
    """
    out: dict[tuple[int, int], RepeatedResult] = {}
    for period in barrier_periods_us:
        for interval in balance_intervals_us:
            cfg = SpeedBalancerConfig(interval_us=interval)
            out[(period, interval)] = repeat_run(
                machine,
                _app_factory(
                    "yield", n_threads, total_compute_us,
                    barrier_period_us=period,
                ),
                balancer="speed",
                cores=n_cores,
                seeds=seeds,
                speed_config=cfg,
                store=store,
            )
    return out


# ----------------------------------------------------------------------
# Figure 4 / Table 3: NPB workload, SPEED vs LOAD vs PINNED
# ----------------------------------------------------------------------
def npb_improvement(
    benches: Sequence[str] = ("bt.A", "cg.B", "ft.B", "is.C", "sp.A"),
    core_counts: Iterable[int] = (6, 10, 12, 14),
    balancers: Sequence[str] = ("speed", "load", "pinned"),
    wait: str = "yield",
    machine: str = "tigerton",
    seeds: Iterable[int] = range(10),
    n_threads: int = 16,
    total_compute_us: int = 400_000,
    store=None,
) -> dict[tuple[str, int, str], RepeatedResult]:
    """NPB subset across core counts and balancers (Figure 4, Table 3)."""
    out: dict[tuple[str, int, str], RepeatedResult] = {}
    for bench in benches:
        for n_cores in core_counts:
            for balancer in balancers:
                out[(bench, n_cores, balancer)] = repeat_run(
                    machine,
                    _app_factory(wait, n_threads, total_compute_us, bench=bench),
                    balancer=balancer,
                    cores=n_cores,
                    seeds=seeds,
                    store=store,
                )
    return out


# ----------------------------------------------------------------------
# Figure 5: sharing with a cpu-hog
# ----------------------------------------------------------------------
def cpu_hog_series(
    balancer: str = "speed",
    wait: str = "sleep",
    core_counts: Iterable[int] = (2, 4, 8, 12, 16),
    one_per_core: bool = False,
    n_threads: int = 16,
    seeds: Iterable[int] = range(5),
    machine: str = "tigerton",
    total_compute_us: int = 1_000_000,
    store=None,
) -> dict[int, RepeatedResult]:
    """EP sharing the machine with a cpu-hog pinned to core 0."""
    out: dict[int, RepeatedResult] = {}
    for n_cores in core_counts:
        threads = n_cores if one_per_core else n_threads
        per_thread = total_compute_us * n_threads // threads
        out[n_cores] = repeat_run(
            machine,
            _app_factory(wait, threads, per_thread),
            balancer="pinned" if one_per_core else balancer,
            cores=n_cores,
            seeds=seeds,
            corunner_factories=(CorunnerSpec("cpu-hog", core=0),),
            store=store,
        )
    return out


# ----------------------------------------------------------------------
# Figure 6: sharing with make -j
# ----------------------------------------------------------------------
def make_share_series(
    benches: Sequence[str] = ("bt.A", "cg.B", "sp.A"),
    balancers: Sequence[str] = ("speed", "load"),
    j: int = 16,
    wait: str = "yield",
    machine: str = "tigerton",
    seeds: Iterable[int] = range(5),
    n_threads: int = 16,
    total_compute_us: int = 300_000,
    store=None,
) -> dict[tuple[str, str], RepeatedResult]:
    """NPB sharing all 16 cores with a make -j co-runner (Figure 6)."""
    out: dict[tuple[str, str], RepeatedResult] = {}
    for bench in benches:
        for balancer in balancers:
            out[(bench, balancer)] = repeat_run(
                machine,
                _app_factory(wait, n_threads, total_compute_us, bench=bench),
                balancer=balancer,
                cores=16,
                seeds=seeds,
                corunner_factories=(CorunnerSpec("make-j", j=j, jobs=4 * j),),
                store=store,
            )
    return out


# ----------------------------------------------------------------------
# smoke registry: one scaled-down run per scenario family
# ----------------------------------------------------------------------
#: co-runner factories addressable by name from a :class:`ScenarioSmoke`
_CORUNNERS: dict[str, Callable] = {
    "cpu-hog": CorunnerSpec("cpu-hog", core=0),
    "make-j": CorunnerSpec("make-j", j=4, jobs=8),
}


@dataclass(frozen=True)
class ScenarioSmoke:
    """A scaled-down, single-run representative of one scenario family.

    Every scenario function in this module expands into a grid of
    :func:`repeat_run` calls -- far too much simulation to re-run under
    full tracing on every CI push.  A ``ScenarioSmoke`` samples one
    representative configuration from the family at reduced compute
    demand, as a declarative record the schedule sanitizer
    (``repro sanitize``) and the differential determinism checker can
    execute by name, in this process or a fresh subprocess.

    Everything in a smoke is plain data (machine preset name,
    :class:`~repro.apps.workloads.AppSpec`, co-runner *names* resolved
    through ``_CORUNNERS``), so a smoke without co-runners can also be
    fanned out through :mod:`repro.harness.parallel` workers -- the
    serial-vs-parallel leg of the differential checker relies on that.
    """

    name: str
    scenario: str  #: the scenario function this samples (documentation)
    machine: str
    app: AppSpec
    balancer: str = "speed"
    cores: Optional[int] = None
    corunners: tuple[str, ...] = ()
    speed_config: Optional[SpeedBalancerConfig] = field(default=None)

    def run(self, seed: int = 0, instrument=None, engine: str = "heap"):
        """Execute the smoke under full tracing; (result, system)."""
        # imported here: parallel builds on the harness, not vice versa
        from repro.harness.parallel import run_app_kwargs

        return run_app(
            **run_app_kwargs(self.spec(seed, engine)),
            trace=True,
            return_system=True,
            instrument=instrument,
        )

    def spec(self, seed: int = 0, engine: str = "heap"):
        """The same configuration as a storable, digestable ``RunSpec``.

        :meth:`run` executes exactly this spec, so
        ``repro.store.spec_digest(smoke.spec())`` keys the run :meth:`run`
        performs -- the parity tests lean on this to assert cached
        results equal fresh ones per family.
        """
        # imported here: parallel builds on the harness, not vice versa
        from repro.harness.parallel import RunSpec

        kwargs: dict = {}
        if self.corunners:
            kwargs["corunner_factories"] = tuple(
                _CORUNNERS[c] for c in self.corunners
            )
        if self.speed_config is not None:
            kwargs["speed_config"] = self.speed_config
        return RunSpec.make(
            self.machine,
            self.app,
            balancer=self.balancer,
            cores=self.cores,
            seed=seed,
            engine=engine,
            **kwargs,
        )


def scenario_smokes() -> dict[str, ScenarioSmoke]:
    """The smoke suite: every scenario family above, sampled once.

    Returned fresh per call (configs are mutable dataclasses); keys are
    stable names usable from the CLI and from subprocess digest runs.
    """
    smokes = [
        ScenarioSmoke(
            name="ep-speedup",
            scenario="ep_speedup_series",
            machine="tigerton",
            app=AppSpec(bench="ep.C", n_threads=8, total_compute_us=400_000),
            balancer="speed",
            cores=6,
        ),
        ScenarioSmoke(
            name="balance-interval",
            scenario="balance_interval_sweep",
            machine="tigerton",
            app=AppSpec(n_threads=3, total_compute_us=300_000, barrier_period_us=3_400),
            balancer="speed",
            cores=2,
            speed_config=SpeedBalancerConfig(interval_us=50_000),
        ),
        ScenarioSmoke(
            name="npb-speed",
            scenario="npb_improvement",
            machine="tigerton",
            app=AppSpec(bench="bt.A", n_threads=8, total_compute_us=200_000),
            balancer="speed",
            cores=6,
        ),
        ScenarioSmoke(
            name="npb-load",
            scenario="npb_improvement",
            machine="tigerton",
            app=AppSpec(bench="cg.B", n_threads=8, total_compute_us=150_000),
            balancer="load",
            cores=6,
        ),
        ScenarioSmoke(
            name="npb-numa",
            scenario="npb_improvement",
            machine="barcelona",
            app=AppSpec(bench="sp.A", n_threads=10, total_compute_us=150_000),
            balancer="speed",
            cores=8,
        ),
        ScenarioSmoke(
            name="cpu-hog",
            scenario="cpu_hog_series",
            machine="tigerton",
            app=AppSpec(bench="ep.C", n_threads=6, wait="sleep", total_compute_us=300_000),
            balancer="speed",
            cores=4,
            corunners=("cpu-hog",),
        ),
        ScenarioSmoke(
            name="make-share",
            scenario="make_share_series",
            machine="tigerton",
            app=AppSpec(bench="sp.A", n_threads=6, total_compute_us=150_000),
            balancer="speed",
            cores=8,
            corunners=("make-j",),
        ),
    ]
    return {s.name: s for s in smokes}
