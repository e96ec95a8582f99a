"""Digest routing + the daemon's worker pool.

Every worker writes the one store root.  A
:meth:`~repro.store.store.ResultStore.put` appends one line to the
store's index log under a blocking ``flock``, so it costs the same at
any store size, and the workers take turns on that lock
(docs/performance.md, "Several writers", has it measured with 2 and 4
workers).  What the serving layer partitions is the *work*: worker
``k`` of ``n`` runs every digest with ``int(digest[:2], 16) % n == k``,
so a digest has one writer and never runs on two workers at once.  A
served result lands in the root, where ``repro submit --store <root>``
and every other direct reader look for it.

Each worker is a forked OS process that resolves a job exactly as a
direct ``repro submit --store`` would: through a fresh
:class:`~repro.service.JobService` on the root.  A hung or crashed
simulation costs only that process: the parent detects it by deadline
or by the process having exited, kills it if need be and respawns just
that worker; the kernel drops a store lock the killed worker held.

Messages: parent sends ``("job", digest, wire_spec)`` or ``("stop",)``
on the worker's private queue; the worker replies
``(worker_id, digest, state, error, busy_s)`` with ``state`` in
``done | cached | failed`` on the shared completion queue.  A pump
thread hands completions to the server's callback, which re-enters the
asyncio loop via ``call_soon_threadsafe``.
"""

from __future__ import annotations

import multiprocessing
import threading
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.serve import clock as _clock
from repro.serve.protocol import spec_from_wire
from repro.service import JobFailedError, JobService
from repro.store import ResultStore

__all__ = [
    "ProcessWorkerPool",
    "ShardedStore",
    "WorkerResult",
    "shard_index",
]

#: one completion message: (worker_id, digest, state, error, busy_s)
WorkerResult = tuple[int, str, str, str, float]

_STOP = ("stop",)


def shard_index(digest: str, n_shards: int) -> int:
    """The worker owning ``digest``: uniform by leading hex byte."""
    return int(digest[:2], 16) % n_shards


class ShardedStore(ResultStore):
    """The daemon's store: one :class:`ResultStore` root, routed by
    digest over ``n_shards`` workers (:func:`shard_index`).

    ``shards[k]``, the store worker ``k`` writes, is this store itself:
    an entry lands under the root whichever worker files it, and
    listing or verifying the root counts it once.
    """

    def __init__(self, root: Union[str, Path], n_shards: int):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1 (got {n_shards})")
        super().__init__(root)
        self.n_shards = n_shards

    @property
    def shards(self) -> list[ResultStore]:
        return [self] * self.n_shards


def _worker_loop(worker_id: int, root: str, inq: Any, outq: Any) -> None:
    """One worker: resolve each job on the private queue in the store.

    A fresh single-attempt :class:`JobService` per job keeps a
    long-lived worker free of cached results and leaves retries to the
    daemon.  Every outcome -- including a spec that fails to decode --
    produces exactly one completion message; the parent never infers
    state from silence except through its own timeout deadline.
    """
    while True:
        msg = inq.get()
        if msg[0] == "stop":
            return
        _, digest, wire = msg
        start = _clock.monotonic()
        service = JobService(ResultStore(root), max_attempts=1)
        try:
            service.submit([spec_from_wire(wire)])
            state, error = ("done" if service.executed else "cached"), ""
        except JobFailedError:
            (status,) = service.statuses().values()
            state, error = "failed", status.error
        except Exception as exc:  # noqa: BLE001 - reported per job
            state, error = "failed", f"{type(exc).__name__}: {exc}"
        outq.put((worker_id, digest, state, error, _clock.monotonic() - start))


class ProcessWorkerPool:
    """One forked OS process per worker, plus the completion pump."""

    def __init__(
        self,
        store: ShardedStore,
        on_result: Callable[[WorkerResult], None],
    ):
        self.store = store
        self.n_workers = store.n_shards
        self.on_result = on_result
        self._ctx = multiprocessing.get_context("fork")
        self._outq = self._ctx.Queue()
        self._inqs = [self._ctx.Queue() for _ in range(self.n_workers)]
        self._procs: list[Any] = [None] * self.n_workers
        self._pump: Optional[threading.Thread] = None
        self._started = False

    def worker_for(self, digest: str) -> int:
        return shard_index(digest, self.n_workers)

    def start(self) -> None:
        if self._started:
            raise RuntimeError("worker pool already started")
        self._started = True
        for i in range(self.n_workers):
            self._spawn(i)
        self._pump = threading.Thread(
            target=self._pump_loop, name="serve-pump", daemon=True
        )
        self._pump.start()

    def _spawn(self, i: int) -> None:
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(i, str(self.store.root), self._inqs[i], self._outq),
            name=f"serve-worker-{i}",
            daemon=True,
        )
        proc.start()
        self._procs[i] = proc

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

    def exitcode(self, i: int) -> Optional[int]:
        """Worker ``i``'s exit code once its process has ended, else None."""
        proc = self._procs[i]
        return None if proc is None or proc.is_alive() else proc.exitcode

    def kill_worker(self, i: int) -> None:
        """Kill (if still alive) and respawn worker ``i``: the escape
        hatch for a hung job and the restart after a dead worker.

        The worker's private queue survives, so jobs already routed to
        it are picked up by the replacement; only the job that was
        *running* is lost, and the server reports it failed with a
        timeout or worker-died reason.
        """
        proc = self._procs[i]
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        self._spawn(i)

    def stop(self, timeout_s: float = 30.0) -> None:
        if not self._started:
            return
        for q in self._inqs:
            q.put(_STOP)
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=timeout_s)
        for proc in self._procs:
            if proc is not None and proc.is_alive():  # pragma: no cover
                proc.kill()
                proc.join(timeout=5.0)
        self._outq.put(("__pump_stop__",))
        if self._pump is not None:
            self._pump.join(timeout=timeout_s)
        self._started = False
