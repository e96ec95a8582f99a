"""Deduplicating job service over the content-addressed store.

:class:`JobService` sits between callers that *want* results for a
batch of :class:`~repro.harness.parallel.RunSpec` configurations and
the machinery that *produces* them.  ``submit(specs)``:

1. reduces each spec to its content digest
   (:func:`repro.store.spec_digest`), so a digest repeated in the batch
   resolves once, and serves every digest the store already holds;
2. runs each miss once through :func:`repro.harness.parallel.map_specs`
   (``workers=N`` fans them out over processes), or with ``trace=True``
   in-process, each filed before the next starts;
3. files each fresh result back into the store, then raises
   :class:`JobFailedError` for what failed, never silently dropped.
   A run is a pure function of its spec, so a failed one is not rerun
   here: submitting the batch again reruns what the store lacks.

A corrupt store entry is a miss (:meth:`~repro.store.ResultStore.lookup`
deletes it) and the configuration is recomputed -- corrupt bytes are
never returned to a caller.

One service serves one thread.  Across processes the store's lock
serialises the writers, so two processes that race on one spec leave
one entry.
"""

from __future__ import annotations

import os
from itertools import repeat
from typing import Iterable, Mapping, Optional, Union

from repro.harness.parallel import RunSpec, map_specs, run_traced
from repro.metrics.results import AppRunResult
from repro.metrics.trace import TraceRecorder
from repro.store import ResultStore, spec_digest

__all__ = ["JobFailedError", "JobService", "run_specs_cached"]


class JobFailedError(RuntimeError):
    """Jobs of a batch failed.  ``failures`` maps each failed digest,
    once and in batch order, to its error text (``Type: message``)."""

    def __init__(self, failures: Mapping[str, str]):
        self.failures = dict(failures)
        detail = "; ".join(f"{d[:12]}...: {why}" for d, why in self.failures.items())
        super().__init__(f"{len(self.failures)} job(s) failed: {detail}")


def _run_traced(
    spec: RunSpec,
) -> tuple[Union[AppRunResult, Exception], Optional[TraceRecorder]]:
    """One spec run in-process under full tracing: ``(result, trace)``,
    or ``(exception, None)`` when it fails.

    The run's System is dropped on return, so a traced batch holds one
    System at a time.
    """
    try:
        result, system = run_traced(spec)
    except Exception as exc:  # noqa: BLE001 - reported by JobService.submit
        return exc, None
    return result, system.trace


class JobService:
    """Resolve spec batches against a :class:`ResultStore` (see the
    module docs).  One service serves one thread."""

    def __init__(self, store: ResultStore):
        self.store = store
        #: digest -> ``cached``, ``done`` or ``failed``, for every digest
        #: this service resolved
        self.states: dict[str, str] = {}
        #: simulations actually executed by this service (not cached)
        self.executed = 0

    def submit(
        self,
        specs: Iterable[RunSpec],
        workers: Optional[int] = 1,
        trace: bool = False,
        timeout_s: Optional[float] = None,
    ) -> list[AppRunResult]:
        """Resolve every spec to its result, simulating only misses.

        Results come back in input order and are byte-identical to an
        uncached run (the parity tests compare their run digests); the
        repeats of a digest share one result object.
        ``trace=True`` additionally stores each run's full trace
        (forcing those runs in-process, since traces do not cross the
        process boundary); a cached entry *without* a trace is a miss,
        replaced once its traced rerun is ready to file.  Each miss runs
        once; raises :class:`JobFailedError` after filing the rest if
        any of them failed.

        ``timeout_s`` bounds each job's wall-clock time: a job past the
        budget fails with a :class:`~repro.harness.pool.SpecTimeoutError`,
        whose message names the ``timeout``.  Deadlines need a worker
        process, so ``timeout_s`` is incompatible with ``trace=True``
        (traced runs execute in-process).
        """
        if timeout_s is not None and trace:
            raise ValueError(
                "timeout_s does not combine with trace=True: traced runs "
                "execute in-process, where a wall-clock deadline cannot "
                "interrupt the simulation"
            )
        specs = list(specs)
        digests = [spec_digest(s) for s in specs]
        unique = dict(zip(digests, specs))

        results: dict[str, AppRunResult] = {}
        untraced: set[str] = set()  # cached without the trace asked for
        for d in unique:
            entry = self.store.lookup(d)
            if entry is None or not isinstance(entry.result, AppRunResult):
                continue
            if trace and not entry.has_trace:
                untraced.add(d)
            else:
                results[d] = entry.result
                self.states[d] = "cached"

        pending = [d for d in unique if d not in results]
        if not pending:
            return [results[d] for d in digests]
        batch = [unique[d] for d in pending]
        runs: Iterable[tuple[object, Optional[TraceRecorder]]]
        if trace:  # lazily: each run is filed before the next starts
            runs = map(_run_traced, batch)
        else:
            runs = zip(
                map_specs(batch, workers=workers, return_exceptions=True,
                          timeout_s=timeout_s),
                repeat(None),
            )
        failures: dict[str, str] = {}
        for d, (outcome, rec) in zip(pending, runs):
            if isinstance(outcome, Exception):
                failures[d] = f"{type(outcome).__name__}: {outcome}"
                self.states[d] = "failed"
                continue
            self.executed += 1
            if d in untraced:
                self.store.delete(d)
            self.store.put(unique[d], outcome, trace=rec)
            results[d] = outcome
            self.states[d] = "done"
        if failures:
            raise JobFailedError(failures)
        return [results[d] for d in digests]


def run_specs_cached(
    specs: Iterable[RunSpec],
    store: Union[ResultStore, JobService, str, os.PathLike],
    workers: Optional[int] = 1,
    trace: bool = False,
) -> list[AppRunResult]:
    """Convenience: resolve specs through a store (path, store or service).

    This is the function ``repeat_run(store=...)`` and the scenario
    ``store=`` paths call: pass a directory path or a
    :class:`ResultStore` to get a throwaway service, or a
    :class:`JobService` whose ``executed`` count the caller reads.
    """
    if isinstance(store, JobService):
        service = store
    else:
        if isinstance(store, (str, os.PathLike)):
            store = ResultStore(store)
        service = JobService(store)
    return service.submit(specs, workers=workers, trace=trace)
