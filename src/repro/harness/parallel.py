"""Process-pool fan-out for independent simulator runs.

The paper's methodology ("repeated ten times or more", grids of core
counts x balancer modes x barrier periods) generates large batches of
fully independent, seed-deterministic simulations.  This module runs
such batches across worker processes while keeping the results
*bit-identical* to a serial execution:

* every job is described by a picklable :class:`RunSpec` (machine
  preset name or registered factory, app spec, balancer mode, core
  subset, seed, extra ``run_app`` keyword parameters);
* each worker builds its own :class:`~repro.system.System` from the
  spec and returns the :class:`~repro.metrics.results.AppRunResult`;
* results are reassembled in submission (seed/grid) order regardless
  of completion order, so aggregation downstream sees the exact
  sequence a serial loop would have produced.

Pickling rules
--------------
``ProcessPoolExecutor`` ships jobs to workers with :mod:`pickle`:

* machine: pass a **preset name** (``"tigerton"``, ``"barcelona"``,
  ``"nehalem"`` or anything added via :func:`register_machine`) or a
  module-level factory function.  Closures and lambdas do not pickle.
* app: pass an :class:`~repro.apps.workloads.AppSpec` (preferred) or a
  module-level ``system -> app`` factory function.
* extra params (``cfs_params``, ``speed_config`` ...): plain
  dataclasses of values pickle fine; ``instrument`` callbacks and
  other closures do not -- run those with ``workers=1``.

:func:`map_specs` pre-checks every spec and raises a descriptive
``ValueError`` naming the offending field before any process is
spawned.

Registered factories added at runtime (not importable from a module)
are only visible to workers on platforms whose process start method is
``fork`` (Linux); prefer module-level factories for portability.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.harness.experiment import run_app
from repro.metrics.results import AppRunResult
from repro.sim.backends import backend_names
from repro.topology import presets
from repro.topology.machine import Machine

__all__ = [
    "MACHINE_PRESETS",
    "RunSpec",
    "SpecTimeoutError",
    "map_specs",
    "register_machine",
    "resolve_machine",
    "run_app_kwargs",
    "run_spec",
    "starmap_kwargs",
]


class SpecTimeoutError(RuntimeError):
    """One spec exceeded its wall-clock budget (a timeout failure).

    Produced by :func:`map_specs` when ``timeout_s`` is set; with
    ``return_exceptions`` it appears in the result list like any other
    per-job failure, so :class:`repro.service.JobService` retries a
    timed-out job exactly as it retries a crash, and the final error
    string a caller sees names the timeout explicitly.
    """

#: machine factories resolvable by name in a :class:`RunSpec`
MACHINE_PRESETS: dict[str, Callable[[], Machine]] = {
    "tigerton": presets.tigerton,
    "barcelona": presets.barcelona,
    "nehalem": presets.nehalem,
}


def register_machine(name: str, factory: Callable[[], Machine]) -> None:
    """Make ``factory`` resolvable as ``RunSpec(machine=name)``."""
    if not callable(factory):
        raise ValueError(f"machine factory for {name!r} is not callable")
    # registration must happen before any workers fork (module import
    # time in practice); the registry is read-only on the worker path
    MACHINE_PRESETS[name] = factory  # sim-lint: ignore[FLOW004]


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
                f"{sorted(MACHINE_PRESETS)} (see register_machine)"
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
        # job naming an unregistered engine must be refused at admission
        if self.engine not in backend_names():
            raise ValueError(
                f"unknown engine backend {self.engine!r}; expected one of "
                f"{backend_names()}"
            )

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


def _require_picklable(obj: Any, what: str) -> None:
    try:
        pickle.dumps(obj)
    except Exception as exc:
        raise ValueError(
            f"{what} does not pickle ({exc}); parallel execution sends jobs "
            "to worker processes, so pass machine preset names, AppSpec "
            "instances or module-level functions -- or fall back to workers=1"
        ) from None


def _fan_out(
    submit_args: Sequence[tuple],
    fn: Callable,
    workers: int,
    return_exceptions: bool = False,
    timeout_s: Optional[float] = None,
) -> list:
    """Run ``fn(*args)`` for each args tuple; results in submission order.

    With ``return_exceptions`` a failed job yields its exception object
    in place of a result instead of aborting the whole batch -- the
    hook :class:`repro.service.JobService` uses to retry individual
    worker crashes without losing the rest of a fan-out.

    With ``timeout_s`` each job gets that many wall seconds, measured
    from the moment the collector reaches its future (jobs running
    concurrently ahead of their turn only gain time, never lose it).
    A job past its deadline yields :class:`SpecTimeoutError`; the job
    that was mid-run cannot be interrupted cooperatively, so on any
    timeout the pool is shut down without waiting and its worker
    processes are killed -- safe because workers only *return* results
    (the parent does all store writes), so no shared state can be left
    half-written.
    """
    pool = ProcessPoolExecutor(max_workers=workers)
    timed_out = False
    try:
        futures = [pool.submit(fn, *args) for args in submit_args]
        out: list = []
        for i, f in enumerate(futures):
            try:
                out.append(f.result(timeout=timeout_s))
            except FuturesTimeoutError:
                f.cancel()
                timed_out = True
                exc: Exception = SpecTimeoutError(
                    f"job #{i} timeout: exceeded the {timeout_s:g}s "
                    "wall-clock budget"
                )
                if not return_exceptions:
                    raise exc from None
                out.append(exc)
            except Exception as exc:  # noqa: BLE001 - reported per job
                if not return_exceptions:
                    raise
                out.append(exc)
        return out
    finally:
        if timed_out:
            # a timed-out job is still running in its worker; joining
            # (or even interpreter exit) would block on it, so kill the
            # workers outright -- they hold no shared state.  Snapshot
            # the process table first: shutdown() clears it.
            procs = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in procs:
                proc.kill()
        else:
            pool.shutdown(wait=True)


def _normalize_workers(workers: Optional[int]) -> int:
    if workers is None:
        import os

        return max(1, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (got {workers})")
    return workers


def map_specs(
    specs: Iterable[RunSpec],
    workers: Optional[int] = 1,
    progress: Optional[Callable[[RunSpec, AppRunResult], None]] = None,
    return_exceptions: bool = False,
    timeout_s: Optional[float] = None,
) -> list[AppRunResult]:
    """Run every spec; return results in input order.

    ``workers=1`` (default) runs serially in-process -- the exact same
    code path a direct ``run_app`` loop takes.  ``workers=None`` uses
    one worker per CPU.  With workers, ``progress`` is still invoked in
    deterministic input order, after all results are in.

    With ``return_exceptions`` a failed spec contributes its exception
    object (including :class:`concurrent.futures.process
    .BrokenProcessPool` for a crashed worker) instead of raising, so a
    caller can retry just the failed subset; ``progress`` is skipped
    for failed specs.

    ``timeout_s`` bounds each spec's wall-clock time; a spec past it
    contributes (or raises) :class:`SpecTimeoutError`.  Enforcing a
    deadline requires the process-pool path -- in-process execution
    cannot be interrupted -- so ``timeout_s`` forces the fan-out even
    for ``workers=1`` / single-spec batches (results stay
    byte-identical; the parity tests cover the pool path).
    """
    specs = list(specs)
    workers = _normalize_workers(workers)
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout_s must be > 0 (got {timeout_s})")
    if timeout_s is None and (workers == 1 or len(specs) <= 1):
        results = []
        for spec in specs:
            try:
                result = run_spec(spec)
            except Exception as exc:  # noqa: BLE001 - reported per job
                if not return_exceptions:
                    raise
                results.append(exc)
                continue
            results.append(result)
            if progress is not None:
                progress(spec, result)
        return results
    for i, spec in enumerate(specs):
        _require_picklable(spec, f"RunSpec #{i} ({spec.balancer}, seed={spec.seed})")
    results = _fan_out(
        [(spec,) for spec in specs], run_spec, workers,
        return_exceptions=return_exceptions, timeout_s=timeout_s,
    )
    if progress is not None:
        for spec, result in zip(specs, results):
            if not isinstance(result, Exception):
                progress(spec, result)
    return results


def _apply_kwargs(fn: Callable, kwargs: dict) -> Any:
    return fn(**kwargs)


def starmap_kwargs(
    fn: Callable[..., Any],
    kwargs_list: Sequence[dict],
    workers: Optional[int] = 1,
) -> list:
    """``[fn(**kw) for kw in kwargs_list]`` across worker processes.

    The generic fan-out behind ``sweep(workers=N)``: outcomes come back
    in input order, so grid assembly is independent of completion
    order.  ``fn``, every kwargs dict and every outcome must pickle.
    """
    kwargs_list = list(kwargs_list)
    workers = _normalize_workers(workers)
    if workers == 1 or len(kwargs_list) <= 1:
        return [fn(**kw) for kw in kwargs_list]
    _require_picklable(fn, f"runner {getattr(fn, '__name__', fn)!r}")
    for i, kw in enumerate(kwargs_list):
        _require_picklable(kw, f"parameter assignment #{i} ({kw})")
    return _fan_out([(fn, kw) for kw in kwargs_list], _apply_kwargs, workers)
