"""The `repro serve` daemon: asyncio HTTP front over the sharded store.

One asyncio loop owns everything except simulation itself: it parses
requests, admits batches against per-tenant token buckets and bounded
queues, runs the speed-aware dispatcher whenever a worker goes idle,
and streams job lifecycles over SSE.  Simulations run in the
:mod:`repro.serve.workers` pool (one process per store shard);
completions re-enter the loop via ``call_soon_threadsafe``, so no
handler ever blocks on a simulation.

Endpoints (all JSON unless noted)::

    GET  /v1/healthz               liveness + drain state
    POST /v1/jobs                  submit a spec batch (202; 400/429/503)
    GET  /v1/jobs                  every job's status view
    GET  /v1/jobs/{digest}         one job's status view
    GET  /v1/jobs/{digest}/events  SSE stream of status transitions
    GET  /v1/results/{digest}      the stored result behind a digest
    GET  /v1/metrics               counters, percentiles, utilization

Lifecycle invariants, asserted by the serve tests and the CI
serve-smoke job:

* **parity** -- a result fetched from the daemon is byte-identical
  (same :func:`~repro.analysis.sanitizer.run_digest`) to the same spec
  run directly through :func:`repro.service.run_specs_cached`;
* **dedup** -- one spec digest is one job: resubmissions attach to
  the existing record, store hits complete instantly as ``cached``, and
  a worker resolves each job through :class:`~repro.service.JobService`
  on its shard, which re-checks the store before running (drain-resume
  never runs a job twice);
* **backpressure** -- an over-rate or over-queue batch gets 429 with a
  concrete ``Retry-After``, atomically (nothing admitted, nothing
  consumed);
* **drain** -- SIGTERM stops admission (503), lets in-flight jobs
  finish, snapshots the still-queued remainder to
  ``serve-queue.json`` under the store root, and a restarted daemon
  resumes exactly that queue.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro.metrics.export import result_to_dict
from repro.serve import clock as _clock
from repro.serve.dispatch import SpeedAwareDispatcher
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import (
    ProtocolError,
    Request,
    Response,
    error_body,
    json_response,
    read_request,
    spec_from_wire,
    sse_event,
)
from repro.serve.tenants import AdmissionError, Tenant, TenantConfig
from repro.serve.workers import ProcessWorkerPool, ShardedStore, shard_index
from repro.store import StoreIntegrityError, UnstorableSpecError, spec_digest

__all__ = [
    "BackgroundServer",
    "ReproServer",
    "ServeConfig",
    "SNAPSHOT_NAME",
    "run_server",
]

SNAPSHOT_NAME = "serve-queue.json"
SNAPSHOT_SCHEMA = 1

#: tenant names a request may introduce
_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


@dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon is parameterized by."""

    store_root: str = ".repro-serve"
    host: str = "127.0.0.1"
    #: 0 picks an ephemeral port (tests); read it from ``server.port``
    port: int = 8421
    #: worker processes == store shards
    workers: int = 2
    #: tenants declared up front; unknown tenants are created on first
    #: submit with :class:`TenantConfig`'s defaults
    tenants: tuple[TenantConfig, ...] = ()
    #: service-speed measurement window (the dispatcher's memory)
    window_s: float = 30.0
    #: per-job wall-clock budget; a worker past it is killed + respawned
    #: (checked every tenth of the budget, at least every 0.25 s)
    job_timeout_s: Optional[float] = None
    #: dispatch attempts per job (1 = no retry)
    max_attempts: int = 2

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1 (got {self.workers})")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1 (got {self.max_attempts})")


class JobRecord:
    """One digest's lifecycle inside the daemon."""

    __slots__ = (
        "digest", "tenant", "wire", "state", "attempts", "error",
        "worker", "submitted_at", "started_at", "finished_at",
        "history", "subscribers",
    )

    def __init__(self, digest: str, tenant: str, wire: dict, now: float):
        self.digest = digest
        self.tenant = tenant
        self.wire = wire
        self.state = "pending"
        self.attempts = 0
        self.error = ""
        self.worker: Optional[int] = None
        self.submitted_at = now
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: every status view published so far (SSE replay)
        self.history: list[dict] = []
        #: live SSE subscriber queues
        self.subscribers: list[asyncio.Queue] = []

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "cached", "failed")

    def view(self) -> dict:
        out: dict[str, Any] = {
            "digest": self.digest,
            "tenant": self.tenant,
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
        }
        if self.finished_at is not None:
            out["latency_s"] = self.finished_at - self.submitted_at
        return out


class ReproServer:
    """The daemon (see module docs).  Owned by one asyncio loop."""

    def __init__(
        self,
        config: ServeConfig,
        clock: Callable[[], float] = _clock.monotonic,
    ):
        self.config = config
        self.store = ShardedStore(config.store_root, config.workers)
        self.metrics = ServeMetrics(clock=clock)
        self.dispatcher = SpeedAwareDispatcher()
        self.tenants: dict[str, Tenant] = {}
        for tc in config.tenants:
            self.tenants[tc.name] = Tenant(tc, config.window_s, clock)
        self.jobs: dict[str, JobRecord] = {}
        #: worker id -> (digest, deadline) while a job is on that worker
        self.busy: dict[int, tuple[str, float]] = {}
        self.idle: set[int] = set(range(config.workers))
        self.draining = False
        self.port = config.port
        self._clock = clock
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool: Any = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._stopped: Optional[asyncio.Event] = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Spawn workers, resume any queue snapshot, bind the socket."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._pool = ProcessWorkerPool(
            self.store, on_result=self._on_result_threadsafe
        )
        self._pool.start()
        self._resume_snapshot()
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.job_timeout_s is not None:
            self._monitor_task = self._loop.create_task(
                self._monitor(self.config.job_timeout_s)
            )
        self._try_dispatch()

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, "server not started"
        await self._stopped.wait()

    def request_drain(self) -> None:
        """Idempotent drain trigger (the SIGTERM handler)."""
        if self._drain_task is None and self._loop is not None:
            self._drain_task = self._loop.create_task(self.drain())

    async def drain(self) -> None:
        """Stop admitting, finish in-flight, snapshot, shut down."""
        if self.draining:
            return
        self.draining = True
        self.metrics.drains += 1
        while self.busy:
            await asyncio.sleep(0.02)
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        self._persist_snapshot()
        # release every live SSE stream before closing the socket
        for rec in self.jobs.values():
            for q in rec.subscribers:
                q.put_nowait(None)
        self._pool.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        assert self._stopped is not None
        self._stopped.set()

    # -- queue snapshot (drain <-> resume) ------------------------------
    @property
    def _snapshot_path(self) -> Path:
        return Path(self.config.store_root) / SNAPSHOT_NAME

    def _persist_snapshot(self) -> None:
        jobs = []
        for name in sorted(self.tenants):
            tenant = self.tenants[name]
            for digest in tenant.queue:
                jobs.append(
                    {
                        "tenant": name,
                        "digest": digest,
                        "wire": self.jobs[digest].wire,
                    }
                )
        path = self._snapshot_path
        if not jobs:
            with contextlib.suppress(FileNotFoundError):
                path.unlink()
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(
                {"schema": SNAPSHOT_SCHEMA, "jobs": jobs},
                indent=2, sort_keys=True,
            )
            + "\n"
        )
        os.replace(tmp, path)

    def _resume_snapshot(self) -> None:
        path = self._snapshot_path
        try:
            snapshot = json.loads(path.read_text())
        except FileNotFoundError:
            return
        except (OSError, json.JSONDecodeError) as exc:
            print(
                f"repro serve: ignoring unreadable queue snapshot "
                f"{path} ({exc})",
                file=sys.stderr,
            )
            return
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            print(
                f"repro serve: ignoring queue snapshot {path} with "
                f"schema {snapshot.get('schema')!r}",
                file=sys.stderr,
            )
            return
        now = self._clock()
        for job in snapshot.get("jobs", []):
            digest, wire = job["digest"], job["wire"]
            if digest in self.jobs:
                continue
            tenant = self._tenant(str(job["tenant"]))
            rec = JobRecord(digest, tenant.name, wire, now)
            self.jobs[digest] = rec
            # resumed work was admitted by the previous daemon; it
            # re-enters the queue without consuming tokens again
            tenant.counters.admitted += 1
            tenant.queue.append(digest)
            self.metrics.submitted += 1
            self.metrics.admitted += 1
            self._publish(rec)
        with contextlib.suppress(FileNotFoundError):
            path.unlink()

    # -- tenants --------------------------------------------------------
    def _tenant(self, name: str) -> Tenant:
        tenant = self.tenants.get(name)
        if tenant is None:
            tenant = Tenant(
                TenantConfig(name=name), self.config.window_s, self._clock
            )
            self.tenants[name] = tenant
        return tenant

    # -- dispatch -------------------------------------------------------
    def _routable(self, worker_id: int) -> Callable[[str], bool]:
        n = self.config.workers
        return lambda digest: shard_index(digest, n) == worker_id

    def _try_dispatch(self) -> None:
        """Hand queued jobs to idle workers, slowest-served first.

        Each idle worker can only take digests its shard owns, so the
        dispatcher is asked per worker with a routability predicate;
        the loop repeats until no idle worker can be fed.
        """
        if self.draining:
            return
        now = self._clock()
        progress = True
        while progress:
            progress = False
            for w in sorted(self.idle):
                routable = self._routable(w)
                tenant = self.dispatcher.pick(
                    (self.tenants[n] for n in sorted(self.tenants)),
                    now=now,
                    eligible=lambda t: t.has_routable(routable),
                )
                if tenant is None:
                    continue
                digest = tenant.pop_routable(routable)
                if digest is None:  # pragma: no cover - guarded by pick
                    continue
                rec = self.jobs[digest]
                rec.state = "running"
                rec.attempts += 1
                rec.worker = w
                rec.started_at = now
                self.idle.discard(w)
                deadline = (
                    now + self.config.job_timeout_s
                    if self.config.job_timeout_s is not None
                    else float("inf")
                )
                self.busy[w] = (digest, deadline)
                self._publish(rec)
                self._pool.submit(digest, rec.wire)
                progress = True

    def _on_result_threadsafe(self, msg: tuple) -> None:
        """Pump-thread entry: bounce a completion into the loop."""
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._on_result, msg)

    def _on_result(self, msg: tuple) -> None:
        """Settle one job: requeue a failure with attempts left, else
        finish it.  Completions and timeouts (``_monitor``) both land
        here."""
        worker_id, digest, state, error, busy_s = msg
        inflight = self.busy.get(worker_id)
        if inflight is None or inflight[0] != digest:
            # stale completion from a worker killed after a timeout --
            # the job was already failed/requeued; only the busy-time
            # accounting is still meaningful
            self.metrics.record_worker_busy(worker_id, busy_s)
            return
        del self.busy[worker_id]
        self.idle.add(worker_id)
        self.metrics.record_worker_busy(worker_id, busy_s)
        rec = self.jobs[digest]
        tenant = self.tenants[rec.tenant]
        tenant.record_service(busy_s)
        if (
            state == "failed"
            and rec.attempts < self.config.max_attempts
            and not self.draining
        ):
            self.metrics.retries += 1
            rec.state = "pending"
            rec.error = error
            rec.worker = None
            tenant.requeue_front(digest)
            self._publish(rec)
        else:
            self._finish(rec, state, error)
        self._try_dispatch()

    def _finish(self, rec: JobRecord, state: str, error: str = "") -> None:
        now = self._clock()
        rec.state = state
        rec.error = error
        rec.finished_at = now
        tenant = self.tenants[rec.tenant]
        tenant.counters.completed += 1
        if state == "cached":
            tenant.counters.cached += 1
        elif state == "failed":
            tenant.counters.failed += 1
        self.metrics.record_completion(state, now - rec.submitted_at)
        self._publish(rec)

    def _publish(self, rec: JobRecord) -> None:
        view = rec.view()
        rec.history.append(view)
        for q in rec.subscribers:
            q.put_nowait(view)

    # -- timeout monitor ------------------------------------------------
    async def _monitor(self, budget: float) -> None:
        """Kill + respawn any worker past its job deadline."""
        error = (
            f"timeout: exceeded the {budget:g}s wall-clock budget; "
            "worker killed and respawned"
        )
        while True:
            await asyncio.sleep(min(0.25, budget / 10))
            now = self._clock()
            for w, (digest, deadline) in sorted(self.busy.items()):
                if now > deadline:
                    self.metrics.timeouts += 1
                    self._pool.kill_worker(w)
                    self._on_result((w, digest, "failed", error, budget))

    # -- HTTP -----------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                req = await read_request(reader)
            except ProtocolError as exc:
                self.metrics.bad_requests += 1
                writer.write(
                    json_response(error_body(400, str(exc)), 400).encode()
                )
                await writer.drain()
                return
            if req is None:
                return
            self.metrics.requests += 1
            try:
                resp = await self._route(req, writer)
            except ProtocolError as exc:
                self.metrics.bad_requests += 1
                resp = json_response(error_body(400, str(exc)), 400)
            except Exception as exc:  # noqa: BLE001 - last-resort handler
                resp = json_response(
                    error_body(500, f"{type(exc).__name__}: {exc}"), 500
                )
            if resp is not None:
                writer.write(resp.encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _route(
        self, req: Request, writer: asyncio.StreamWriter
    ) -> Optional[Response]:
        path, method = req.path, req.method
        if path == "/v1/healthz" and method == "GET":
            return json_response(
                {"status": "draining" if self.draining else "ok",
                 "draining": self.draining, "workers": self.config.workers}
            )
        if path == "/v1/jobs" and method == "POST":
            return self._post_jobs(req)
        if path == "/v1/jobs" and method == "GET":
            tenant = req.query.get("tenant")
            views = [
                self.jobs[d].view()
                for d in sorted(self.jobs)
                if tenant is None or self.jobs[d].tenant == tenant
            ]
            return json_response({"jobs": views})
        if path == "/v1/metrics" and method == "GET":
            return json_response(
                self.metrics.snapshot(
                    self.tenants.values(),
                    n_workers=self.config.workers,
                    inflight={d: str(w) for w, (d, _) in self.busy.items()},
                )
            )
        m = re.fullmatch(r"/v1/jobs/([0-9a-f]{64})", path)
        if m and method == "GET":
            rec = self.jobs.get(m.group(1))
            if rec is None:
                return json_response(
                    error_body(404, f"unknown job {m.group(1)[:12]}..."), 404
                )
            return json_response(rec.view())
        m = re.fullmatch(r"/v1/jobs/([0-9a-f]{64})/events", path)
        if m and method == "GET":
            return await self._serve_events(m.group(1), writer)
        m = re.fullmatch(r"/v1/results/([0-9a-f]{64})", path)
        if m and method == "GET":
            return self._get_result(m.group(1))
        known = path in ("/v1/jobs", "/v1/metrics", "/v1/healthz") or re.fullmatch(
            r"/v1/(jobs|results)/[0-9a-f]{64}(/events)?", path
        )
        if known:
            return json_response(
                error_body(405, f"{method} not allowed on {path}"), 405
            )
        return json_response(error_body(404, f"no route {path}"), 404)

    # -- POST /v1/jobs --------------------------------------------------
    def _post_jobs(self, req: Request) -> Response:
        if self.draining:
            return json_response(
                error_body(503, "daemon is draining; not admitting jobs"),
                503,
                headers={"Retry-After": "5"},
            )
        body = req.json()
        if not isinstance(body, dict):
            raise ProtocolError("request body must be a JSON object")
        wires = body.get("specs")
        if wires is None and "spec" in body:
            wires = [body["spec"]]
        if not isinstance(wires, list) or not wires:
            raise ProtocolError(
                "request body needs a non-empty 'specs' array (or one 'spec')"
            )
        tenant_name = body.get("tenant", "default")
        if not isinstance(tenant_name, str) or not _TENANT_RE.fullmatch(tenant_name):
            raise ProtocolError(
                f"invalid tenant {tenant_name!r} (want {_TENANT_RE.pattern})"
            )

        # validate + digest every spec before touching any state: a 400
        # or 429 must leave the daemon exactly as it found it.  A job is
        # keyed by its spec's digest, the key its worker files it under
        digests: list[str] = []
        by_digest: dict[str, dict] = {}
        for i, wire in enumerate(wires):
            try:
                digest = spec_digest(spec_from_wire(wire))
            except (ProtocolError, UnstorableSpecError, TypeError, ValueError) as exc:
                raise ProtocolError(f"specs[{i}]: {exc}") from None
            digests.append(digest)
            by_digest.setdefault(digest, wire)

        self.metrics.submitted += len(wires)
        tenant = self._tenant(tenant_name)
        now = self._clock()

        to_admit: list[str] = []
        fresh: dict[str, JobRecord] = {}
        for digest in by_digest:
            existing = self.jobs.get(digest)
            if existing is not None and not (existing.state == "failed"):
                self.metrics.deduped += 1
                continue
            rec = JobRecord(digest, tenant.name, by_digest[digest], now)
            try:
                entry = self.store.get(digest)
            except StoreIntegrityError:
                # a miss; the worker owning the shard deletes and recomputes
                entry = None
            if entry is not None and entry.result is not None:
                # store hit: terminal immediately, no queue slot used
                fresh[digest] = rec
                continue
            to_admit.append(digest)
            fresh[digest] = rec

        try:
            tenant.admit(to_admit, now)
        except AdmissionError as exc:
            self.metrics.rejected += len(to_admit)
            retry_after = max(1, int(exc.retry_after_s + 0.999))
            return json_response(
                error_body(429, str(exc), retry_after_s=exc.retry_after_s),
                429,
                headers={"Retry-After": str(retry_after)},
            )

        for digest, rec in fresh.items():
            self.jobs[digest] = rec
            if digest in to_admit:
                self.metrics.admitted += 1
                self._publish(rec)
            else:
                tenant.counters.admitted += 1
                self._finish(rec, "cached")
        self._try_dispatch()
        return json_response(
            {
                "tenant": tenant.name,
                "jobs": [self.jobs[d].view() for d in digests],
            },
            status=202,
        )

    # -- GET /v1/results/{digest} ---------------------------------------
    def _get_result(self, digest: str) -> Response:
        rec = self.jobs.get(digest)
        if rec is not None and rec.state == "failed":
            return json_response(
                error_body(409, f"job failed: {rec.error}", state="failed"),
                409,
            )
        if rec is not None and not rec.terminal:
            return json_response(
                error_body(
                    404,
                    f"job is {rec.state}; result not available yet",
                    state=rec.state,
                ),
                404,
            )
        entry = self.store.get(digest)
        if entry is None or entry.result is None:
            return json_response(
                error_body(404, f"no stored result for {digest[:12]}..."), 404
            )
        return json_response(
            {"digest": digest, "result": result_to_dict(entry.result)}
        )

    # -- GET /v1/jobs/{digest}/events (SSE) -----------------------------
    async def _serve_events(
        self, digest: str, writer: asyncio.StreamWriter
    ) -> Optional[Response]:
        rec = self.jobs.get(digest)
        if rec is None:
            return json_response(
                error_body(404, f"unknown job {digest[:12]}..."), 404
            )
        self.metrics.sse_streams += 1
        queue: asyncio.Queue = asyncio.Queue()
        rec.subscribers.append(queue)
        try:
            writer.write(
                Response(200, content_type="text/event-stream").encode(
                    streaming=True
                )
            )
            # replay, then live: a late subscriber still sees the full
            # pending -> running -> terminal sequence, in order
            replay = list(rec.history)
            for view in replay:
                writer.write(sse_event("status", view))
            await writer.drain()
            last_state = replay[-1]["state"] if replay else None
            if last_state in ("done", "cached", "failed"):
                writer.write(sse_event("end", {"digest": digest, "state": last_state}))
                await writer.drain()
                return None
            while True:
                view = await queue.get()
                if view is None:  # drain: the daemon is shutting down
                    writer.write(
                        sse_event("end", {"digest": digest, "state": rec.state,
                                          "draining": True})
                    )
                    await writer.drain()
                    return None
                writer.write(sse_event("status", view))
                await writer.drain()
                if view["state"] in ("done", "cached", "failed"):
                    writer.write(
                        sse_event("end", {"digest": digest, "state": view["state"]})
                    )
                    await writer.drain()
                    return None
        finally:
            with contextlib.suppress(ValueError):
                rec.subscribers.remove(queue)


async def run_server(config: ServeConfig) -> None:
    """Run the daemon until SIGTERM/SIGINT completes a graceful drain."""
    import signal

    server = ReproServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, server.request_drain)
    print(
        f"repro serve: listening on http://{config.host}:{server.port} "
        f"({config.workers} worker(s), store {config.store_root})",
        flush=True,
    )
    await server.wait_stopped()
    print("repro serve: drained, bye", flush=True)


class BackgroundServer:
    """A daemon on a private loop thread (tests and the load driver).

    ``start()`` blocks until the socket is bound and exposes ``port``;
    ``drain()`` performs the same graceful shutdown SIGTERM would and
    joins the thread.
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self.server: Optional[ReproServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def port(self) -> int:
        assert self.server is not None, "server not started"
        return self.server.port

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self, timeout_s: float = 30.0) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise RuntimeError("serve daemon did not come up in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"serve daemon failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            self.server = ReproServer(self.config)
            await self.server.start()
        except BaseException as exc:  # noqa: BLE001 - surfaced in start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.server.wait_stopped()

    def drain(self, timeout_s: float = 60.0) -> None:
        if self._loop is None or self.server is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self.server.request_drain)
        self._thread.join(timeout=timeout_s)
        if self._thread.is_alive():  # pragma: no cover - hang diagnostics
            raise RuntimeError("serve daemon did not drain in time")
