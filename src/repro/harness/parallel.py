"""Process-pool fan-out for independent simulator runs.

The paper's methodology ("repeated ten times or more", grids of core
counts x balancer modes x barrier periods) generates large batches of
fully independent, seed-deterministic simulations.  This module runs
such batches across worker processes while keeping the results
*bit-identical* to a serial execution:

* every job is described by a picklable :class:`RunSpec` (machine
  preset name or module-level factory, app spec, balancer mode, core
  subset, seed, extra ``run_app`` keyword parameters);
* each worker builds its own :class:`~repro.system.System` from the
  spec and returns the :class:`~repro.metrics.results.AppRunResult`;
* results are reassembled in submission (seed/grid) order regardless
  of completion order, so aggregation downstream sees the exact
  sequence a serial loop would have produced.

:func:`run_traced` runs one spec in this process under full tracing
and hands back its :class:`~repro.system.System` as well -- the path
of ``repro sanitize``, the differential checker and traced store
entries.

Pickling rules
--------------
The worker pool (:mod:`repro.harness.pool`) ships jobs to its forked
workers with :mod:`pickle`:

* machine: pass a **preset name** (``"tigerton"``, ``"barcelona"``,
  ``"nehalem"``) or a module-level factory function.  Closures and
  lambdas do not pickle.
* app: pass an :class:`~repro.apps.workloads.AppSpec` (preferred) or a
  module-level ``system -> app`` factory function.
* extra params (``cfs_params``, ``speed_config`` ...): plain
  dataclasses of values pickle fine; ``instrument`` callbacks and
  other closures do not -- run those with ``workers=1``.

:func:`map_specs` pre-checks every spec and raises a descriptive
``ValueError`` naming the offending field before any process is
spawned.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.harness.experiment import BALANCER_MODES, _check_core_subset, run_app
from repro.harness.pool import SpecTimeoutError, WorkerPool
from repro.metrics.results import AppRunResult
from repro.sim.backends import backend_names
from repro.system import System
from repro.topology import presets
from repro.topology.machine import Machine

__all__ = [
    "MACHINE_PRESETS",
    "RunSpec",
    "SpecTimeoutError",
    "map_specs",
    "resolve_machine",
    "run_app_kwargs",
    "run_spec",
    "run_traced",
]


#: machine factories resolvable by name in a :class:`RunSpec`
MACHINE_PRESETS: dict[str, Callable[[], Machine]] = {
    "tigerton": presets.tigerton,
    "barcelona": presets.barcelona,
    "nehalem": presets.nehalem,
}

#: each preset's core count: a spec's cores are checked without building its machine
_PRESET_N_CORES = {name: make().n_cores for name, make in MACHINE_PRESETS.items()}


def resolve_machine(
    machine: Union[str, Machine, Callable[[], Machine]],
) -> Union[Machine, Callable[[], Machine]]:
    """Turn a preset name into its factory; pass anything else through."""
    if isinstance(machine, str):
        try:
            return MACHINE_PRESETS[machine]
        except KeyError:
            raise ValueError(
                f"unknown machine preset {machine!r}; expected one of "
                f"{sorted(MACHINE_PRESETS)}"
            ) from None
    return machine


@dataclass(frozen=True)
class RunSpec:
    """One picklable, self-contained ``run_app`` job.

    ``params`` holds any extra keyword arguments for
    :func:`~repro.harness.experiment.run_app` as a sorted tuple of
    ``(name, value)`` pairs -- a canonical form that keeps equal specs
    equal.  Build it with :meth:`make` to get the normalization for
    free.
    """

    machine: Union[str, Machine, Callable[[], Machine]]
    app: Callable  # AppSpec or module-level ``system -> app`` factory
    balancer: str = "speed"
    cores: Optional[Union[int, tuple[int, ...]]] = None
    seed: int = 0
    #: event-dispatch backend (see :mod:`repro.sim.backends`).  A first-
    #: class field -- never folded into ``params`` -- so a spec has
    #: exactly one representation of its engine and the store key (see
    #: :func:`repro.store.keys.spec_key`) records it explicitly.
    engine: str = "heap"
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        # fail at construction, not after a worker's retries: a served
        # job naming an unregistered engine, an unknown machine preset
        # or balancer, or a core subset or co-runner core its machine
        # lacks must be refused at admission
        if self.engine not in backend_names():
            raise ValueError(
                f"unknown engine backend {self.engine!r}; expected one of "
                f"{backend_names()}"
            )
        if self.balancer not in BALANCER_MODES:
            raise ValueError(
                f"unknown balancer mode {self.balancer!r}; expected one of "
                f"{BALANCER_MODES}"
            )
        preset = self.machine if isinstance(self.machine, str) else ""
        if preset:
            resolve_machine(preset)  # an unknown preset name raises
        n_cores = _PRESET_N_CORES.get(preset)
        _check_core_subset(self.cores, n_cores, preset)
        if n_cores is not None:
            _check_corunner_cores(self.params, n_cores, preset)

    @classmethod
    def make(
        cls,
        machine: Union[str, Machine, Callable[[], Machine]],
        app: Callable,
        balancer: str = "speed",
        cores: Optional[Union[int, Sequence[int]]] = None,
        seed: int = 0,
        engine: str = "heap",
        **params: Any,
    ) -> "RunSpec":
        if cores is not None and not isinstance(cores, int):
            cores = tuple(cores)
        return cls(
            machine=machine,
            app=app,
            balancer=balancer,
            cores=cores,
            seed=seed,
            engine=engine,
            params=tuple(sorted(params.items())),
        )


def _check_corunner_cores(params: tuple, n_cores: int, machine: str) -> None:
    """Raise ``ValueError`` if a cpu-hog co-runner in ``params`` is
    pinned to a core past the machine's last."""
    corunners = dict(params).get("corunner_factories")
    if not isinstance(corunners, (tuple, list)):
        return
    # imported here: scenarios builds on this module
    from repro.harness.scenarios import CorunnerSpec

    for c in corunners:
        if isinstance(c, CorunnerSpec) and c.kind == "cpu-hog" and c.core >= n_cores:
            raise ValueError(
                f"co-runner core {c.core} is outside machine {machine!r} "
                f"(cores 0..{n_cores - 1})"
            )


def run_app_kwargs(spec: RunSpec) -> dict[str, Any]:
    """The :func:`~repro.harness.experiment.run_app` keyword arguments
    a spec stands for."""
    cores = spec.cores
    return dict(
        machine=resolve_machine(spec.machine),
        app_factory=spec.app,
        balancer=spec.balancer,
        cores=list(cores) if isinstance(cores, tuple) else cores,
        seed=spec.seed,
        engine=spec.engine,
        **dict(spec.params),
    )


def run_spec(spec: RunSpec) -> AppRunResult:
    """Execute one :class:`RunSpec` (in this process) via ``run_app``."""
    return run_app(**run_app_kwargs(spec))


def run_traced(
    spec: RunSpec, instrument: Optional[Callable[[System], None]] = None
) -> tuple[AppRunResult, System]:
    """Execute one spec in this process under full tracing.

    Returns ``(result, system)``; the recorded history is
    ``system.trace``.  ``instrument`` (``system -> None``) is passed to
    ``run_app`` when given; a spec may carry its own in its params
    instead, but not both.
    """
    hook = {} if instrument is None else {"instrument": instrument}
    return run_app(**run_app_kwargs(spec), **hook, trace=True, return_system=True)


def _require_picklable(obj: Any, what: str) -> None:
    try:
        pickle.dumps(obj)
    except Exception as exc:
        raise ValueError(
            f"{what} does not pickle ({exc}); parallel execution sends jobs "
            "to worker processes, so pass machine preset names, AppSpec "
            "instances or module-level functions -- or fall back to workers=1"
        ) from None


def _run_one(spec: RunSpec) -> AppRunResult:
    """A pool worker's job.  It looks ``run_spec`` up when it runs, so a
    worker runs whatever this module binds at the worker's fork."""
    return run_spec(spec)


def map_specs(
    specs: Iterable[RunSpec],
    workers: Optional[int] = 1,
    return_exceptions: bool = False,
    timeout_s: Optional[float] = None,
) -> list[AppRunResult]:
    """Run every spec; return results in input order.

    ``workers=1`` (default) runs serially in-process -- the exact same
    code path a direct ``run_app`` loop takes.  ``workers=None`` uses
    one worker per CPU.  Otherwise every spec runs in a
    :class:`~repro.harness.pool.WorkerPool` of ``min(workers,
    len(specs))`` forked workers, a batch of one included: the specs
    go out in input order, each to the next idle worker, so a spec
    that kills its worker costs only its own result.

    With ``return_exceptions`` a failed spec contributes its exception
    object (:class:`~repro.harness.pool.WorkerDiedError` for a worker
    that died under it) instead of raising, so a caller can retry just
    the failed subset.

    ``timeout_s`` bounds each spec's wall-clock time, counted from when
    its worker receives it; a spec past it contributes (or raises)
    :class:`SpecTimeoutError`, and only its worker is killed.
    Enforcing a deadline needs a worker process -- in-process
    execution cannot be interrupted -- so ``timeout_s`` runs the pool
    even for ``workers=1`` (results stay byte-identical; the parity
    tests cover the pool path).
    """
    specs = list(specs)
    if workers is None:
        workers = os.cpu_count() or 1
    elif workers < 1:
        raise ValueError(f"workers must be >= 1 (got {workers})")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout_s must be > 0 (got {timeout_s})")
    if (timeout_s is None and workers == 1) or not specs:
        results = []
        for spec in specs:
            try:
                results.append(run_spec(spec))
            except Exception as exc:  # noqa: BLE001 - reported per job
                if not return_exceptions:
                    raise
                results.append(exc)
        return results
    for i, spec in enumerate(specs):
        _require_picklable(spec, f"RunSpec #{i} ({spec.balancer}, seed={spec.seed})")
    out: list = [None] * len(specs)
    todo = deque(enumerate(specs))
    with WorkerPool(min(workers, len(specs)), _run_one, timeout_s) as pool:
        for w in range(pool.n):
            pool.submit(w, *todo.popleft())
        left = len(specs)
        while left:
            for outcome in pool.wait():
                left -= 1
                if not (outcome.ok or return_exceptions):
                    raise outcome.value
                out[outcome.token] = outcome.value
                if todo:
                    pool.submit(outcome.worker, *todo.popleft())
    return out
