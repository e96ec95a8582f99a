"""Assembling and running single experiments.

``run_app`` is the workhorse used by every benchmark and most
integration tests: it builds a :class:`~repro.system.System` on a given
machine, installs the requested balancer mode, spawns the application
(optionally restricted to a core subset, the paper's ``taskset``) along
with any co-runners, runs to completion and returns measurements.

Balancer modes mirror the paper's figure legends:

=============  ====================================================
mode           meaning
=============  ====================================================
``load``       Linux queue-length balancing (LOAD)
``speed``      LOAD underneath + user-level speed balancer (SPEED)
``pinned``     static round-robin pinning (PINNED / One-per-core)
``dwrr``       Distributed Weighted Round-Robin
``ule``        FreeBSD ULE push/steal migration
``none``       placement only, no migration
=============  ====================================================
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence, TypeVar, Union

from repro.apps.spmd import SpmdApp
from repro.balance.base import NoBalancer
from repro.balance.dwrr import DwrrBalancer
from repro.balance.linux import LinuxLoadBalancer, LinuxParams
from repro.balance.pinned import PinnedBalancer
from repro.balance.ule import UleBalancer
from repro.core.speed_balancer import SpeedBalancer, SpeedBalancerConfig
from repro.mem.cache_model import CacheModel
from repro.metrics.results import AppRunResult, RepeatedResult
from repro.metrics.trace import TraceRecorder
from repro.sched.cfs import CfsParams
from repro.system import System
from repro.topology.machine import Machine

__all__ = ["BALANCER_MODES", "make_kernel_balancer", "repeat_cells", "repeat_run", "run_app"]

K = TypeVar("K")

BALANCER_MODES = ("load", "speed", "pinned", "dwrr", "ule", "none")


def make_kernel_balancer(mode: str, linux_params: Optional[LinuxParams] = None):
    """The kernel-level balancer behind a mode name."""
    if mode in ("load", "speed"):
        # speedbalancer "can easily co-exist with the default Linux load
        # balance implementation": SPEED runs on top of LOAD.
        return LinuxLoadBalancer(linux_params)
    if mode == "pinned":
        return PinnedBalancer()
    if mode == "dwrr":
        return DwrrBalancer()
    if mode == "ule":
        return UleBalancer()
    if mode == "none":
        return NoBalancer()
    raise ValueError(f"unknown balancer mode {mode!r}; expected one of {BALANCER_MODES}")


def run_app(
    machine: Union[Machine, Callable[[], Machine]],
    app_factory: Callable[[System], SpmdApp],
    balancer: str = "speed",
    cores: Optional[Union[int, Sequence[int]]] = None,
    seed: int = 0,
    corunner_factories: Sequence[Callable[[System], object]] = (),
    speed_config: Optional[SpeedBalancerConfig] = None,
    linux_params: Optional[LinuxParams] = None,
    cfs_params: Optional[CfsParams] = None,
    cache_model: Optional[CacheModel] = None,
    limit_us: int = 3_600_000_000,
    return_system: bool = False,
    scheduler: str = "cfs",
    instrument: Optional[Callable[[System], None]] = None,
    trace: Union[bool, TraceRecorder] = False,
    engine: str = "heap",
):
    """Run one application to completion under one balancer mode.

    Parameters
    ----------
    machine:
        A :class:`Machine` or a zero-argument factory (factories keep
        repeated runs independent).
    app_factory:
        ``system -> SpmdApp``; the app is spawned at t=0.
    cores:
        Core subset for the app and its speed balancer (``taskset``):
        an int n means cores ``0..n-1``.  Co-runners are unrestricted.
    corunner_factories:
        Each ``system -> obj`` where obj has ``spawn(at)``; spawned at
        t=0 before the app (like background load already present).
    return_system:
        Also return the System for white-box inspection in tests.
    scheduler:
        Per-core policy: "cfs" (default) or "o1" (fixed 100 ms quanta;
        the 2.6.22 substrate DWRR was prototyped on).
    instrument:
        Called with the fully assembled :class:`System` just before the
        run starts -- the hook ``repro check --invariants`` uses to
        install a :class:`~repro.analysis.invariants.InvariantChecker`.
    trace:
        Record the full execution/migration history into the System's
        :class:`~repro.metrics.trace.TraceRecorder` (True, or an
        instance to control the record cap).  Combine with
        ``return_system`` to analyze the trace post hoc -- this is how
        ``repro sanitize`` feeds the schedule sanitizer.
    engine:
        Event-dispatch backend (see :mod:`repro.sim.backends`): "heap"
        (default) or "native".  Backends are digest-equivalent; the
        choice only affects wall-clock speed.
    """
    m = machine() if callable(machine) else machine
    system = System(
        m, seed=seed, cfs_params=cfs_params, cache_model=cache_model,
        scheduler=scheduler, trace=trace, engine=engine,
    )
    system.set_balancer(make_kernel_balancer(balancer, linux_params))

    corunners = [f(system) for f in corunner_factories]
    for c in corunners:
        c.spawn(at=0)

    app = app_factory(system)
    core_list: Optional[list[int]]
    if cores is None:
        core_list = None
    elif isinstance(cores, int):
        core_list = list(range(cores))
    else:
        core_list = sorted(cores)
        if len(core_list) != len(set(core_list)):
            dups = sorted({c for c in core_list if core_list.count(c) > 1})
            raise ValueError(
                f"duplicate core ids {dups} in core subset {core_list}; "
                "each core may appear at most once (duplicates would "
                "silently inflate n_cores in the results)"
            )
    if core_list is not None:
        if not core_list:
            raise ValueError("the core subset is empty")
        bad = [c for c in core_list if not 0 <= c < m.n_cores]
        if bad:
            raise ValueError(
                f"core subset {bad} outside machine {m.name!r} "
                f"(cores 0..{m.n_cores - 1})"
            )

    if balancer == "speed":
        sb = SpeedBalancer(app, cores=core_list, config=speed_config)
        system.add_user_balancer(sb)

    if instrument is not None:
        instrument(system)
    app.spawn(at=0, cores=core_list)
    system.run_until_done([app], limit_us=limit_us)

    result = AppRunResult(
        app_name=app.name,
        balancer=balancer,
        n_cores=len(core_list) if core_list is not None else m.n_cores,
        n_threads=app.n_threads,
        seed=seed,
        elapsed_us=app.elapsed_us,
        total_work_us=app.total_work_us(),
        migrations=app.migrations(),
        thread_exec_us=[t.exec_us for t in app.tasks],
        thread_compute_us=[t.compute_us for t in app.tasks],
        thread_finish_us=[t.finished_at for t in app.tasks],
        system_migrations=system.total_migrations(),
    )
    if return_system:
        return result, system
    return result


def repeat_run(
    machine: Union[str, Machine, Callable[[], Machine]],
    app_factory: Callable[[System], SpmdApp],
    balancer: str = "speed",
    cores: Optional[Union[int, Sequence[int]]] = None,
    seeds: Iterable[int] = range(10),
    workers: Optional[int] = 1,
    store=None,
    **kwargs,
) -> RepeatedResult:
    """The paper's methodology: "repeated ten times or more".

    Runs the same configuration across ``seeds`` and aggregates, one
    :class:`~repro.harness.parallel.RunSpec` per seed: the one-cell case
    of :func:`repeat_cells`.  ``machine`` is
    a preset name (see :func:`~repro.harness.parallel.resolve_machine`),
    a factory or an instance; a *factory* should be passed rather than
    an instance when the machine object is mutated by runs (presets are
    safe either way; a fresh System is built per run regardless).

    ``workers`` fans the seeds out over that many worker processes via
    :mod:`repro.harness.parallel` (``None`` = one per CPU).  Each seed
    is an independent deterministic simulation, so results are
    bit-identical to the default serial path -- they are reassembled in
    seed order regardless of completion order.  With ``workers > 1``
    the machine, ``app_factory`` and every extra keyword argument must
    pickle (preset names, :class:`~repro.apps.workloads.AppSpec` and
    module-level functions do; closures do not).

    ``store`` (a directory path, :class:`~repro.store.ResultStore` or
    :class:`~repro.service.JobService`) makes the repeat *incremental*:
    each seed's configuration is resolved against the content-addressed
    store first and only the misses simulate; fresh results are filed
    back.  Cached results are byte-identical to fresh ones.  The same
    picklability rules apply, plus the configuration must be
    *storable* (see :mod:`repro.store.keys`) -- closures raise
    :class:`~repro.store.UnstorableSpecError` before anything runs.
    """
    # imported here: parallel and the service build on this module
    from repro.harness.parallel import RunSpec

    specs = [
        RunSpec.make(
            machine, app_factory, balancer=balancer, cores=cores, seed=s,
            **kwargs,
        )
        for s in seeds
    ]
    return repeat_cells({0: specs}, workers=workers, store=store)[0]


def repeat_cells(
    cells: Mapping[K, Sequence], workers: Optional[int] = 1, store=None
) -> dict[K, RepeatedResult]:
    """A grid of repeated configurations, resolved as one batch.

    ``cells`` maps each cell's key to its ``RunSpec`` s, one per seed.
    All of them go to one ``map_specs`` call (one ``run_specs_cached``
    call with ``store``), so workers stay busy across cells.  Returns
    one :class:`RepeatedResult` per cell, in ``cells`` order;
    ``workers`` and ``store`` are :func:`repeat_run`'s.
    """
    # imported here: parallel and the service build on this module
    from repro.harness.parallel import map_specs

    specs = [spec for group in cells.values() for spec in group]
    if store is None:
        runs = map_specs(specs, workers=workers)
    else:
        from repro.service import run_specs_cached

        runs = run_specs_cached(specs, store, workers=workers)
    out: dict[K, RepeatedResult] = {}
    start = 0
    for key, group in cells.items():
        out[key] = RepeatedResult(runs=runs[start:start + len(group)])
        start += len(group)
    return out
