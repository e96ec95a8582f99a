"""Named scenarios: the configurations behind each figure and table.

Each figure function builds its whole grid -- a cell per configuration,
a :class:`~repro.harness.parallel.RunSpec` per seed -- and resolves it
in one :func:`~repro.harness.experiment.repeat_cells` batch: on the
native engine when this machine can build it (the engines are
digest-equivalent; only wall time differs), one worker per CPU, through
the store when ``store=`` is given.  It returns one
:class:`~repro.metrics.results.RepeatedResult` per cell, in grid order,
so the benchmarks can both assert on shapes and print paper-style
output.  Durations are scaled down from the paper's 2-80 s runs (see
``workloads`` module docstring); every scaling choice is recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.apps.multiprogram import CpuHog, MakeWorkload
from repro.apps.workloads import AppSpec
from repro.core.speed_balancer import SpeedBalancerConfig
from repro.harness.experiment import repeat_cells
from repro.harness.parallel import RunSpec
from repro.metrics.results import RepeatedResult
from repro.sim.backends import backend_available

__all__ = [
    "CorunnerSpec",
    "ep_speedup_series",
    "balance_interval_sweep",
    "npb_improvement",
    "cpu_hog_series",
    "make_share_series",
    "scenario_smokes",
]


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
    mean_job_us: int = 150_000  #: mean length of one make job

    def __post_init__(self) -> None:
        # fail at construction, not in a worker: a served job naming an
        # unknown co-runner must be refused at admission
        if self.kind not in ("cpu-hog", "make-j"):
            raise ValueError(
                f"unknown co-runner kind {self.kind!r}; expected 'cpu-hog' or 'make-j'"
            )

    def build(self, system):
        if self.kind == "cpu-hog":
            return CpuHog(system, core=self.core)
        jobs = self.jobs if self.jobs is not None else 4 * self.j
        return MakeWorkload(system, j=self.j, jobs=jobs, mean_job_us=self.mean_job_us)

    __call__ = build


def _resolve(machine: str, cells: dict, seeds: Iterable[int], store) -> dict:
    """Run each cell (key -> ``(app, run_app keywords)``) on ``machine``
    once per seed, every cell in one batch (see the module docstring)."""
    engine = "native" if backend_available("native") else "heap"
    seeds = tuple(seeds)
    specs = {
        key: [RunSpec.make(machine, app, seed=s, engine=engine, **kw) for s in seeds]
        for key, (app, kw) in cells.items()
    }
    return repeat_cells(specs, workers=None, store=store)


def _ep_cells(balancer, wait, core_counts, n_threads, one_per_core, total_compute_us, **kw):
    """EP per core count: ``n_threads`` threads, or one pinned per core;
    ``total_compute_us`` is per thread at ``n_threads``."""
    cells = {}
    for n_cores in core_counts:
        threads = n_cores if one_per_core else n_threads
        app = AppSpec(n_threads=threads, wait=wait,
                      total_compute_us=total_compute_us * n_threads // threads)
        cells[n_cores] = (app, dict(
            balancer="pinned" if one_per_core else balancer, cores=n_cores, **kw))
    return cells


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
    cells = _ep_cells(balancer, wait, core_counts, n_threads, one_per_core, total_compute_us)
    return _resolve(machine, cells, seeds, store)


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
    cells = {
        (period, interval): (
            AppSpec(n_threads=n_threads, total_compute_us=total_compute_us,
                    barrier_period_us=period),
            dict(balancer="speed", cores=n_cores,
                 speed_config=SpeedBalancerConfig(interval_us=interval)),
        )
        for period in barrier_periods_us
        for interval in balance_intervals_us
    }
    return _resolve(machine, cells, seeds, store)


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
    flavor: str = "upc",
    store=None,
) -> dict[tuple[str, int, str], RepeatedResult]:
    """NPB subset across core counts and balancers (Figure 4, Table 3).

    ``flavor`` selects Table 2's UPC or OpenMP (``"omp"``) inter-barrier
    times; Section 6.2's OpenMP workload runs the latter.
    """
    core_counts = tuple(core_counts)
    cells = {
        (bench, n_cores, balancer): (
            AppSpec(bench=bench, n_threads=n_threads, wait=wait, flavor=flavor,
                    total_compute_us=total_compute_us),
            dict(balancer=balancer, cores=n_cores),
        )
        for bench in benches
        for n_cores in core_counts
        for balancer in balancers
    }
    return _resolve(machine, cells, seeds, store)


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
    cells = _ep_cells(balancer, wait, core_counts, n_threads, one_per_core, total_compute_us,
                      corunner_factories=(CorunnerSpec("cpu-hog", core=0),))
    return _resolve(machine, cells, seeds, store)


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
    """NPB sharing all 16 cores with a make -j co-runner of ``4*j`` jobs
    of 120 ms each on average (Figure 6)."""
    make = (CorunnerSpec("make-j", j=j, jobs=4 * j, mean_job_us=120_000),)
    cells = {
        (bench, balancer): (
            AppSpec(bench=bench, n_threads=n_threads, wait=wait,
                    total_compute_us=total_compute_us),
            dict(balancer=balancer, cores=16, corunner_factories=make),
        )
        for bench in benches
        for balancer in balancers
    }
    return _resolve(machine, cells, seeds, store)


# ----------------------------------------------------------------------
# smoke registry: one scaled-down run per scenario family
# ----------------------------------------------------------------------
def scenario_smokes() -> dict[str, RunSpec]:
    """The smoke suite: every scenario family above, sampled once.

    Every figure function expands into a grid of seeded runs -- far too
    much simulation to re-run under full tracing on every CI push.  A
    smoke is one representative configuration of a family at reduced
    compute demand, as a seed-0 heap :class:`RunSpec` that the schedule
    sanitizer (``repro sanitize``), the differential determinism
    checker and the golden digests run by name; another seed or engine
    is a :func:`dataclasses.replace` away.  Keys are stable names
    usable from the CLI and from subprocess digest runs.
    """
    return {
        # ep_speedup_series
        "ep-speedup": RunSpec.make(
            "tigerton", AppSpec(bench="ep.C", n_threads=8, total_compute_us=400_000),
            balancer="speed", cores=6,
        ),
        # balance_interval_sweep
        "balance-interval": RunSpec.make(
            "tigerton",
            AppSpec(n_threads=3, total_compute_us=300_000, barrier_period_us=3_400),
            balancer="speed", cores=2,
            speed_config=SpeedBalancerConfig(interval_us=50_000),
        ),
        # npb_improvement, under SPEED, LOAD and on a NUMA machine
        "npb-speed": RunSpec.make(
            "tigerton", AppSpec(bench="bt.A", n_threads=8, total_compute_us=200_000),
            balancer="speed", cores=6,
        ),
        "npb-load": RunSpec.make(
            "tigerton", AppSpec(bench="cg.B", n_threads=8, total_compute_us=150_000),
            balancer="load", cores=6,
        ),
        "npb-numa": RunSpec.make(
            "barcelona", AppSpec(bench="sp.A", n_threads=10, total_compute_us=150_000),
            balancer="speed", cores=8,
        ),
        # cpu_hog_series
        "cpu-hog": RunSpec.make(
            "tigerton",
            AppSpec(bench="ep.C", n_threads=6, wait="sleep", total_compute_us=300_000),
            balancer="speed", cores=4,
            corunner_factories=(CorunnerSpec("cpu-hog", core=0),),
        ),
        # make_share_series
        "make-share": RunSpec.make(
            "tigerton", AppSpec(bench="sp.A", n_threads=6, total_compute_us=150_000),
            balancer="speed", cores=8,
            corunner_factories=(CorunnerSpec("make-j", j=4, jobs=8),),
        ),
    }
