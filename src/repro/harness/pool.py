"""One forked worker pool: the parent hands each job to an idle worker.

:func:`repro.harness.parallel.map_specs` and the ``repro serve`` daemon
run their jobs here.  Each worker is a forked process with a pipe of
its own; it loops receiving a job, running the pool's job function on
it and sending back the value or the exception.  The parent picks the
worker for every job, so it knows which job each worker holds and
since when: a job's deadline counts from the moment its worker was
handed it.  :meth:`WorkerPool.wait` is one
:func:`multiprocessing.connection.wait` over every result pipe, every
process sentinel and a wake-up pipe.  A reply is the job's outcome; a
sentinel firing fails the worker's job with :class:`WorkerDiedError`
naming the exit code; a passed deadline kills the worker and fails its
job with :class:`SpecTimeoutError`.  Only that worker is joined and
replaced, before the failure is reported, and its pipe goes with it,
so a late or partial message from it is never read.  A worker is a
fork of the parent as it is at spawn time, so it runs the job function
with the module globals the parent had then, and it points every
socket it inherited but its own pipe at ``/dev/null``: the other
workers' pipes, and a daemon's listening socket and connections when
it is respawned while they are open.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import stat
import threading
import time
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, NamedTuple, Optional

__all__ = ["Outcome", "SpecTimeoutError", "WorkerDiedError", "WorkerPool"]


class SpecTimeoutError(RuntimeError):
    """A job outlived its wall-clock budget, and its worker was killed.
    The job fails like any other, and the error a caller sees names the
    timeout."""


class WorkerDiedError(RuntimeError):
    """A job's worker process died while running it (``os._exit``, a
    crash in the native core, an OOM kill)."""


class Outcome(NamedTuple):
    """What became of one job."""

    worker: int
    token: Any  #: the caller's handle for the job, as given to submit()
    ok: bool  #: whether ``value`` is the job's value or the exception it failed with
    value: Any
    busy_s: float  #: the worker's run time; for a death or timeout, since the hand-over


def _now() -> float:
    """The pool's one clock: deadlines and busy time are real seconds,
    never simulated ones."""
    return time.monotonic()  # sim-lint: ignore[SIM003]


def _release_sockets(keep: int) -> None:
    """Point every socket descriptor of this process but ``keep`` and
    0-2 at ``/dev/null``.

    A fork holds every descriptor its parent had open.  Kept, a socket
    the parent closes stays open: a daemon's client connection would
    never read EOF, and a pool pipe (a socket pair) would not report
    its other end gone.  ``dup2`` rather than ``close`` leaves each
    number taken, so a finaliser that later closes it can never hit a
    reused descriptor.  Pipes stay: the process sentinel is one.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in map(int, sorted(os.listdir(fd_dir))):
            if fd <= 2 or fd in (keep, null):
                continue
            try:
                mode = os.fstat(fd).st_mode
            except OSError:  # the listing's own descriptor, closed since
                continue
            if stat.S_ISSOCK(mode):
                os.dup2(null, fd)
    finally:
        os.close(null)


def _worker_main(conn: Connection, job: Callable[[Any], Any]) -> None:
    _release_sockets(keep=conn.fileno())
    while True:
        try:
            payload = conn.recv()
        except EOFError:  # the parent is gone
            return
        if payload is None:  # stop
            return
        start = _now()
        try:
            ok, value = True, job(payload)
        except Exception as exc:  # noqa: BLE001 - reported per job
            ok, value = False, exc
        busy_s = _now() - start
        try:
            conn.send((ok, value, busy_s))
        except Exception as exc:  # noqa: BLE001 - the value or exception does not pickle
            bad = exc if ok else value
            conn.send((False, RuntimeError(f"{type(bad).__name__}: {bad}"), busy_s))


class WorkerPool:
    """``n`` forked workers running ``job`` (see the module docs).

    One thread may :meth:`submit` and :meth:`stop` while another sits
    in :meth:`wait`, as the daemon's loop and pump threads do.
    """

    def __init__(
        self, n: int, job: Callable[[Any], Any], timeout_s: Optional[float] = None
    ):
        if n < 1:
            raise ValueError(f"a pool needs at least one worker (got {n})")
        self.n = n
        self.timeout_s = timeout_s
        self._job = job
        self._ctx = multiprocessing.get_context("fork")
        self._procs: list[Any] = [None] * n
        self._conns: list[Any] = [None] * n
        #: per worker: (token, hand-over time) of the job it holds, or None
        self._held: list[Optional[tuple[Any, float]]] = [None] * n
        self._lock = threading.Lock()  # the worker table
        self._waiting = threading.Lock()  # held through a wait()
        self._stopping = False
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        for w in range(n):
            self._spawn(w)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _spawn(self, w: int) -> None:
        parent_end, child_end = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(child_end, self._job), daemon=True
        )
        proc.start()
        child_end.close()
        self._procs[w], self._conns[w] = proc, parent_end

    def _respawn(self, w: int) -> Optional[int]:
        """Kill, join and replace worker ``w``; the exit code it ended with."""
        proc = self._procs[w]
        proc.kill()
        proc.join()
        code = proc.exitcode
        proc.close()
        self._conns[w].close()
        self._held[w] = None
        self._spawn(w)
        return code

    def _wake(self) -> None:
        with contextlib.suppress(BlockingIOError):  # a wake-up is pending
            os.write(self._wake_w, b"!")

    def submit(self, worker: int, token: Any, payload: Any) -> None:
        """Hand ``payload`` to ``worker``, which must hold no job; its
        :class:`Outcome` carries ``token``."""
        with self._lock:
            if self._held[worker] is not None:
                raise RuntimeError(f"worker {worker} already holds a job")
            self._held[worker] = (token, _now())
            # a worker that just died refuses the pipe: wait() reports it
            with contextlib.suppress(BrokenPipeError, ConnectionResetError):
                self._conns[worker].send(payload)
        if self.timeout_s is not None:
            self._wake()  # a wait() in another thread takes up the deadline

    def wait(self) -> list[Outcome]:
        """Block until some held job has an outcome; return every outcome
        there is.  Returns ``[]`` once :meth:`stop` has been called."""
        with self._waiting:
            while not self._stopping:
                timeout: Optional[float] = None
                started = [h[1] for h in self._held if h is not None]
                if self.timeout_s is not None and started:
                    timeout = max(0.0, min(started) + self.timeout_s - _now())
                sentinels = [p.sentinel for p in self._procs]
                ready = set(wait([*self._conns, *sentinels, self._wake_r], timeout))
                if self._wake_r in ready:
                    os.read(self._wake_r, 4096)
                with self._lock:
                    outcomes = self._settle(ready)
                if outcomes:
                    return outcomes
        return []

    def _settle(self, ready: set) -> list[Outcome]:
        """The outcomes of one wake-up: replies, deaths, passed deadlines."""
        out: list[Outcome] = []
        now = _now()
        for w in range(self.n):
            held = self._held[w]
            spent = now - held[1] if held else 0.0
            reply: Optional[tuple[bool, Any, float]] = None
            if self._procs[w].sentinel in ready:
                reply = (False, self._died(w), spent)
            elif self._conns[w] in ready:
                self._held[w] = None
                try:
                    reply = self._conns[w].recv()  # with the worker's own busy time
                except (EOFError, OSError):  # it died mid-reply
                    reply = (False, self._died(w), spent)
                except Exception as exc:  # noqa: BLE001 - an unreadable reply
                    reply = (False, RuntimeError(f"{type(exc).__name__}: {exc}"), spent)
            elif held and self.timeout_s is not None and spent >= self.timeout_s:
                self._respawn(w)
                reply = (False, SpecTimeoutError(
                    f"timeout: exceeded the {self.timeout_s:g}s wall-clock "
                    "budget; worker killed and respawned"
                ), spent)
            if reply is not None and held is not None:
                out.append(Outcome(w, held[0], *reply))
        return out

    def _died(self, w: int) -> WorkerDiedError:
        return WorkerDiedError(f"worker died (exit code {self._respawn(w)}); respawned")

    def stop(self, timeout_s: float = 30.0) -> None:
        """Stop every worker, killing any that holds a job, and close
        the pipes.  Wakes a :meth:`wait` blocked in another thread."""
        if self._stopping:
            return
        self._stopping = True
        self._wake()
        with self._waiting, self._lock:
            for proc, conn, held in zip(self._procs, self._conns, self._held):
                if held is not None:
                    proc.kill()
                with contextlib.suppress(OSError):  # a dead worker's pipe
                    conn.send(None)
            for proc, conn in zip(self._procs, self._conns):
                proc.join(timeout_s)
                if proc.is_alive():  # pragma: no cover - a wedged worker
                    proc.kill()
                    proc.join()
                proc.close()
                conn.close()
            os.close(self._wake_r)
            os.close(self._wake_w)
