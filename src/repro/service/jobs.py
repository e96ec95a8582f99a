"""Deduplicating job service over the content-addressed store.

:class:`JobService` sits between callers that *want* results for a
batch of :class:`~repro.harness.parallel.RunSpec` configurations and
the machinery that *produces* them:

1. ``submit(specs)`` reduces each spec to its content digest
   (:func:`repro.store.spec_digest`) and dedupes three ways -- within
   the batch, against jobs already in flight on other threads of this
   service, and against the on-disk store;
2. the remaining cache misses are batched through
   :func:`repro.harness.parallel.map_specs` (``workers=N`` fans them
   out over processes);
3. a crashed or failed job is retried up to ``max_attempts`` times
   with linear backoff; what still fails is reported as ``failed``,
   never silently dropped;
4. every state transition streams a :class:`JobStatus`
   (``pending -> running -> cached | done | failed``) to the
   ``on_status`` callback, and fresh results are filed back into the
   store before ``submit`` returns.

A corrupt store entry is a miss (:meth:`~repro.store.ResultStore.lookup`
deletes it) and the configuration is recomputed -- corrupt bytes are
never returned to a caller.

Concurrent ``submit`` calls of the *same* spec from two threads
execute it once: the second submitter blocks on the first's in-flight
event and receives the identical result object.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.harness.experiment import run_app
from repro.harness.parallel import RunSpec, map_specs, run_app_kwargs
from repro.metrics.results import AppRunResult
from repro.store import ResultStore, spec_digest

__all__ = [
    "JOB_STATES",
    "JobFailedError",
    "JobService",
    "JobStatus",
    "run_specs_cached",
]

#: the lifecycle of one submitted configuration
JOB_STATES = ("pending", "running", "cached", "done", "failed")


class JobFailedError(RuntimeError):
    """A submitted configuration exhausted its attempts."""


@dataclass(frozen=True)
class JobStatus:
    """One snapshot of one job's lifecycle (streamed to ``on_status``)."""

    digest: str
    state: str  #: one of :data:`JOB_STATES`
    spec: Optional[RunSpec] = None
    attempts: int = 0
    error: str = ""


def _run_spec_traced(spec: RunSpec) -> tuple[AppRunResult, object]:
    """Execute one spec in-process under full tracing; (result, trace)."""
    result, system = run_app(
        **run_app_kwargs(spec), trace=True, return_system=True
    )
    return result, system.trace


class JobService:
    """Submit/execute/cache layer over a :class:`ResultStore`.

    One service instance is a session object: it remembers completed
    digests in memory (``fetch`` fast path) and coordinates in-flight
    dedup across its threads.  Store-level dedup works across service
    instances and across processes.
    """

    def __init__(
        self,
        store: ResultStore,
        max_attempts: int = 3,
        backoff_s: float = 0.05,
        on_status: Optional[Callable[[JobStatus], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1 (got {max_attempts})")
        self.store = store
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.on_status = on_status
        self._sleep = sleep
        self._lock = threading.Lock()
        self._inflight: dict[str, threading.Event] = {}
        self._results: dict[str, AppRunResult] = {}
        self._statuses: dict[str, JobStatus] = {}
        #: simulations actually executed by this service (not cached)
        self.executed = 0

    # -- status ---------------------------------------------------------
    def status(self, digest: str) -> Optional[JobStatus]:
        with self._lock:
            return self._statuses.get(digest)

    def statuses(self) -> dict[str, JobStatus]:
        with self._lock:
            return dict(self._statuses)

    def _transition(self, status: JobStatus) -> None:
        with self._lock:
            self._statuses[status.digest] = status
        if self.on_status is not None:
            self.on_status(status)

    # -- fetch ----------------------------------------------------------
    def fetch(self, digest: str) -> AppRunResult:
        """The result behind a digest, from memory or the store."""
        with self._lock:
            if digest in self._results:
                return self._results[digest]
        entry = self.store.get(digest)
        if entry is None or entry.result is None:
            raise KeyError(f"no stored result for digest {digest!r}")
        assert isinstance(entry.result, AppRunResult)
        return entry.result

    # -- submit ---------------------------------------------------------
    def submit(
        self,
        specs: Iterable[RunSpec],
        workers: Optional[int] = 1,
        trace: bool = False,
        timeout_s: Optional[float] = None,
    ) -> list[AppRunResult]:
        """Resolve every spec to its result, simulating only misses.

        Results come back in input order and are byte-identical to an
        uncached run (asserted by the parity tests via the PR 3
        digests).  ``trace=True`` additionally stores each run's full
        trace (forcing those runs in-process, since traces do not
        cross the process boundary); a cached entry *without* a trace
        is treated as a miss and re-archived with one.  Raises
        :class:`JobFailedError` if any spec exhausts its attempts.

        ``timeout_s`` bounds each job's wall-clock time per attempt: a
        job past the budget fails with a
        :class:`~repro.harness.parallel.SpecTimeoutError`, re-enters
        the retry loop like any crash, and -- if every attempt times
        out -- surfaces ``timeout`` in its permanent failure reason.
        Deadlines need the interruptible process-pool path, so
        ``timeout_s`` is incompatible with ``trace=True`` (traced runs
        execute in-process).
        """
        if timeout_s is not None and trace:
            raise ValueError(
                "timeout_s does not combine with trace=True: traced runs "
                "execute in-process, where a wall-clock deadline cannot "
                "interrupt the simulation"
            )
        specs = list(specs)
        digests = [spec_digest(s) for s in specs]

        unique: dict[str, RunSpec] = {}
        for d, s in zip(digests, specs):
            unique.setdefault(d, s)

        owned: list[str] = []
        awaited: dict[str, threading.Event] = {}
        with self._lock:
            for d in unique:
                if d in self._results:
                    continue
                if d in self._inflight:
                    awaited[d] = self._inflight[d]
                else:
                    self._inflight[d] = threading.Event()
                    owned.append(d)
        for d in owned:
            self._transition(JobStatus(digest=d, state="pending", spec=unique[d]))

        try:
            to_run = self._resolve_cached(owned, unique, trace=trace)
            self._execute(
                to_run, unique, workers=workers, trace=trace,
                timeout_s=timeout_s,
            )
        except BaseException:
            # never leave waiters hanging on an event that won't fire
            with self._lock:
                for d in owned:
                    ev = self._inflight.pop(d, None)
                    if ev is not None:
                        ev.set()
            raise

        for d, ev in sorted(awaited.items()):
            ev.wait()

        out: list[AppRunResult] = []
        failed: list[JobStatus] = []
        with self._lock:
            for d in digests:
                if d in self._results:
                    out.append(self._results[d])
                else:
                    failed.append(self._statuses[d])
        if failed:
            detail = "; ".join(
                f"{st.digest[:12]}... after {st.attempts} attempt(s): {st.error}"
                for st in failed
            )
            raise JobFailedError(
                f"{len(failed)} job(s) failed permanently: {detail}"
            )
        return out

    def _resolve_cached(
        self, owned: Sequence[str], unique: dict[str, RunSpec], trace: bool
    ) -> list[str]:
        """Serve owned digests from the store; return the misses."""
        to_run: list[str] = []
        for d in owned:
            entry = self.store.lookup(d)
            if entry is not None and isinstance(entry.result, AppRunResult):
                if trace and not entry.has_trace:
                    # the caller wants a trace but the cached entry has
                    # none; re-running is byte-identical (parity tests),
                    # so replace the entry with a traced one
                    self.store.delete(d)
                    to_run.append(d)
                else:
                    self._finish(d, entry.result, "cached", attempts=0)
            else:
                to_run.append(d)
        return to_run

    def _execute(
        self,
        to_run: list[str],
        unique: dict[str, RunSpec],
        workers: Optional[int],
        trace: bool,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Run the cache misses with bounded retries, store, finish."""
        pending = list(to_run)
        attempt = 0
        while pending and attempt < self.max_attempts:
            attempt += 1
            for d in pending:
                self._transition(
                    JobStatus(
                        digest=d, state="running", spec=unique[d],
                        attempts=attempt,
                    )
                )
            still_failed: list[tuple[str, Exception]] = []
            if trace:
                for d in pending:
                    try:
                        result, rec = _run_spec_traced(unique[d])
                    except Exception as exc:  # noqa: BLE001 - retried below
                        still_failed.append((d, exc))
                        continue
                    self.executed += 1
                    self.store.put(unique[d], result, trace=rec)
                    self._finish(d, result, "done", attempts=attempt)
            else:
                outcomes = map_specs(
                    [unique[d] for d in pending],
                    workers=workers,
                    return_exceptions=True,
                    timeout_s=timeout_s,
                )
                for d, outcome in zip(pending, outcomes):
                    if isinstance(outcome, Exception):
                        still_failed.append((d, outcome))
                        continue
                    self.executed += 1
                    self.store.put(unique[d], outcome)
                    self._finish(d, outcome, "done", attempts=attempt)
            pending = [d for d, _ in still_failed]
            errors = {d: exc for d, exc in still_failed}
            if pending and attempt < self.max_attempts:
                self._sleep(self.backoff_s * attempt)
        for d in pending:
            exc = errors[d]
            self._fail(d, f"{type(exc).__name__}: {exc}", attempts=attempt)

    def _finish(
        self, digest: str, result: AppRunResult, state: str, attempts: int
    ) -> None:
        with self._lock:
            self._results[digest] = result
            ev = self._inflight.pop(digest, None)
        self._transition(
            replace(
                self._statuses.get(digest)
                or JobStatus(digest=digest, state=state),
                state=state,
                attempts=attempts,
            )
        )
        if ev is not None:
            ev.set()

    def _fail(self, digest: str, error: str, attempts: int) -> None:
        with self._lock:
            ev = self._inflight.pop(digest, None)
        self._transition(
            replace(
                self._statuses.get(digest)
                or JobStatus(digest=digest, state="failed"),
                state="failed",
                attempts=attempts,
                error=error,
            )
        )
        if ev is not None:
            ev.set()


def run_specs_cached(
    specs: Iterable[RunSpec],
    store: Union[ResultStore, JobService, str, os.PathLike],
    workers: Optional[int] = 1,
    trace: bool = False,
) -> list[AppRunResult]:
    """Convenience: resolve specs through a store (path, store or service).

    This is the function ``repeat_run(store=...)`` and the scenario
    ``store=`` paths call: pass a directory path or a
    :class:`ResultStore` to get a throwaway service, or a long-lived
    :class:`JobService` to share in-flight dedup across calls.
    """
    if isinstance(store, JobService):
        service = store
    else:
        if isinstance(store, (str, os.PathLike)):
            store = ResultStore(store)
        service = JobService(store)
    return service.submit(specs, workers=workers, trace=trace)
