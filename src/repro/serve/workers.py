"""Sharded store + the daemon's worker pool.

Scaling the content-addressed store past one process means scaling its
*lock*: every :meth:`~repro.store.store.ResultStore.put` serializes on
``index.lock``, so N workers sharing one store root would convoy on a
single file.  The serving layer therefore splits the namespace by
digest prefix: shard ``k`` of ``n`` owns every digest with
``int(digest[:2], 16) % n == k``, each shard is a full, independent
:class:`ResultStore` under ``<root>/shard-XX/``, and **worker ``k`` is
the only writer of shard ``k``** -- workers never contend on one lock,
by construction rather than by luck.  Reads route the same way, so the
parent daemon resolves any digest without touching a lock another
process holds.

Two pool backends share one message protocol:

* :class:`ProcessWorkerPool` -- one OS process per shard (the
  production backend; survives a hung or crashed simulation, which the
  parent detects by deadline and answers by killing + respawning just
  that worker);
* :class:`ThreadWorkerPool` -- same loop on threads, for fast in-suite
  tests (no fork, no kill support).

Messages: parent sends ``("job", digest, wire_spec)`` or ``("stop",)``
on the worker's private queue; the worker replies
``(worker_id, digest, state, error, busy_s)`` with ``state`` in
``done | cached | failed`` on the shared completion queue.  A pump
thread hands completions to the server's callback, which re-enters the
asyncio loop via ``call_soon_threadsafe``.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import threading
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.harness.parallel import RunSpec, run_spec
from repro.metrics.results import AppRunResult
from repro.serve import clock as _clock
from repro.serve.protocol import spec_from_wire
from repro.store import ResultStore, StoreEntry

__all__ = [
    "POOL_BACKENDS",
    "ProcessWorkerPool",
    "ShardedStore",
    "ThreadWorkerPool",
    "WorkerResult",
    "shard_index",
]

#: one completion message: (worker_id, digest, state, error, busy_s)
WorkerResult = tuple[int, str, str, str, float]

_STOP = ("stop",)


def shard_index(digest: str, n_shards: int) -> int:
    """The shard owning ``digest``: uniform by leading hex byte."""
    return int(digest[:2], 16) % n_shards


class ShardedStore:
    """N independent :class:`ResultStore` shards under one root.

    The read-side façade the daemon uses: ``get``/``contains``/
    ``load_trace`` route by digest prefix, ``digests`` merges all
    shards (each shard's own deterministic order, shards in index
    order).  Writes happen only inside the owning worker.
    """

    def __init__(self, root: Union[str, Path], n_shards: int):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1 (got {n_shards})")
        self.root = Path(root)
        self.n_shards = n_shards
        self.shards = [
            ResultStore(self.shard_root(i)) for i in range(n_shards)
        ]

    def shard_root(self, index: int) -> Path:
        return self.root / f"shard-{index:02d}"

    def shard_for(self, digest: str) -> ResultStore:
        return self.shards[shard_index(digest, self.n_shards)]

    def get(self, digest: str) -> Optional[StoreEntry]:
        return self.shard_for(digest).get(digest)

    def contains(self, digest: str) -> bool:
        return self.shard_for(digest).contains(digest)

    def delete(self, digest: str) -> bool:
        return self.shard_for(digest).delete(digest)

    def digests(self) -> list[str]:
        out: list[str] = []
        for shard in self.shards:
            out.extend(shard.digests())
        return out

    def verify(self) -> list[str]:
        findings: list[str] = []
        for i, shard in enumerate(self.shards):
            findings.extend(f"shard-{i:02d}: {f}" for f in shard.verify())
        return findings


def _worker_loop(
    worker_id: int,
    shard_root: str,
    inq: Any,
    outq: Any,
    runner: Callable[[RunSpec], AppRunResult],
) -> None:
    """One worker: drain the private queue into the owned shard.

    Runs in a child process (or test thread).  Every outcome --
    including a spec that fails to decode -- produces exactly one
    completion message; the parent never infers state from silence
    except through its own timeout deadline.
    """
    store = ResultStore(shard_root)
    while True:
        msg = inq.get()
        if msg[0] == "stop":
            return
        _, digest, wire = msg
        start = _clock.monotonic()
        try:
            spec = spec_from_wire(wire)
            entry = store.lookup(digest)
            if entry is not None and entry.result is not None:
                # drain-resume / cross-tenant dedup hit: never run twice
                outq.put(
                    (worker_id, digest, "cached", "",
                     _clock.monotonic() - start)
                )
                continue
            result = runner(spec)
            store.put(spec, result)
            outq.put(
                (worker_id, digest, "done", "", _clock.monotonic() - start)
            )
        except Exception as exc:  # noqa: BLE001 - reported per job
            outq.put(
                (
                    worker_id,
                    digest,
                    "failed",
                    f"{type(exc).__name__}: {exc}",
                    _clock.monotonic() - start,
                )
            )


class _PoolBase:
    """Routing + pump-thread bookkeeping shared by both backends."""

    #: per-worker private job queues / shared completion queue; the
    #: subclasses bind the concrete (mp vs thread-safe) queue types
    _inqs: list[Any]
    _outq: Any

    def __init__(
        self,
        store: ShardedStore,
        on_result: Callable[[WorkerResult], None],
        runner: Callable[[RunSpec], AppRunResult] = run_spec,
    ):
        self.store = store
        self.n_workers = store.n_shards
        self.on_result = on_result
        self.runner = runner
        self._pump: Optional[threading.Thread] = None
        self._started = False

    def _spawn_all(self) -> None:
        raise NotImplementedError

    def _stop_workers(self, timeout_s: float) -> None:
        raise NotImplementedError

    def kill_worker(self, i: int) -> None:
        raise NotImplementedError

    def worker_for(self, digest: str) -> int:
        return shard_index(digest, self.n_workers)

    def start(self) -> None:
        if self._started:
            raise RuntimeError("worker pool already started")
        self._started = True
        self._spawn_all()
        self._pump = threading.Thread(
            target=self._pump_loop, name="serve-pump", daemon=True
        )
        self._pump.start()

    def _pump_loop(self) -> None:
        while True:
            msg = self._outq.get()
            if msg[0] == "__pump_stop__":
                return
            self.on_result(msg)

    def submit(self, digest: str, wire: dict) -> int:
        """Queue one job on its owning worker; returns the worker id."""
        if not self._started:
            raise RuntimeError("worker pool is not started")
        w = self.worker_for(digest)
        self._inqs[w].put(("job", digest, wire))
        return w

    def stop(self, timeout_s: float = 30.0) -> None:
        if not self._started:
            return
        self._stop_workers(timeout_s)
        self._outq.put(("__pump_stop__",))
        if self._pump is not None:
            self._pump.join(timeout=timeout_s)
        self._started = False


class ProcessWorkerPool(_PoolBase):
    """One OS process per shard (fork start method on Linux)."""

    def __init__(
        self,
        store: ShardedStore,
        on_result: Callable[[WorkerResult], None],
        runner: Callable[[RunSpec], AppRunResult] = run_spec,
        mp_context: str = "fork",
    ):
        super().__init__(store, on_result, runner)
        self._ctx = multiprocessing.get_context(mp_context)
        self._outq = self._ctx.Queue()
        self._inqs = [self._ctx.Queue() for _ in range(self.n_workers)]
        self._procs: list[Any] = [None] * self.n_workers

    def _spawn_one(self, i: int) -> None:
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(
                i,
                str(self.store.shard_root(i)),
                self._inqs[i],
                self._outq,
                self.runner,
            ),
            name=f"serve-worker-{i}",
            daemon=True,
        )
        proc.start()
        self._procs[i] = proc

    def _spawn_all(self) -> None:
        for i in range(self.n_workers):
            self._spawn_one(i)

    def kill_worker(self, i: int) -> None:
        """Kill + respawn worker ``i`` (the hung-job escape hatch).

        The worker's private queue survives, so jobs already routed to
        the shard are picked up by the replacement; only the job that
        was *running* is lost, and the server reports it failed with a
        timeout reason.
        """
        proc = self._procs[i]
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        self._spawn_one(i)

    def _stop_workers(self, timeout_s: float) -> None:
        for q in self._inqs:
            q.put(_STOP)
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=timeout_s)
        for proc in self._procs:
            if proc is not None and proc.is_alive():  # pragma: no cover
                proc.kill()
                proc.join(timeout=5.0)


class ThreadWorkerPool(_PoolBase):
    """Same protocol on daemon threads (test backend; no kill)."""

    def __init__(
        self,
        store: ShardedStore,
        on_result: Callable[[WorkerResult], None],
        runner: Callable[[RunSpec], AppRunResult] = run_spec,
    ):
        super().__init__(store, on_result, runner)
        self._outq: queue_mod.Queue = queue_mod.Queue()
        self._inqs = [queue_mod.Queue() for _ in range(self.n_workers)]
        self._threads: list[Optional[threading.Thread]] = [None] * self.n_workers

    def _spawn_all(self) -> None:
        for i in range(self.n_workers):
            t = threading.Thread(
                target=_worker_loop,
                args=(
                    i,
                    str(self.store.shard_root(i)),
                    self._inqs[i],
                    self._outq,
                    self.runner,
                ),
                name=f"serve-worker-{i}",
                daemon=True,
            )
            t.start()
            self._threads[i] = t

    def kill_worker(self, i: int) -> None:
        raise NotImplementedError(
            "thread workers cannot be killed; use the process backend "
            "when job timeouts matter"
        )

    def _stop_workers(self, timeout_s: float) -> None:
        for q in self._inqs:
            q.put(_STOP)
        for t in self._threads:
            if t is not None:
                t.join(timeout=timeout_s)


POOL_BACKENDS: dict[str, type[_PoolBase]] = {
    "process": ProcessWorkerPool,
    "thread": ThreadWorkerPool,
}
