"""End-to-end tests for the serving daemon (repro.serve.server).

Each test boots a real daemon on an ephemeral port, with the forked
worker processes ``repro serve`` deploys, and talks to it through
:class:`repro.serve.ServeClient` -- the same HTTP path production
traffic takes.  A test that needs a fake job installs one with
:func:`fake_job` before booting; the workers inherit it.
"""

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.apps.workloads import AppSpec
from repro.harness import parallel
from repro.harness.parallel import RunSpec, run_spec
from repro.metrics.export import result_to_dict
from repro.metrics.results import AppRunResult
from repro.serve import (
    BackgroundServer,
    ServeClient,
    ServeConfig,
    ServeError,
    ShardedStore,
    TenantConfig,
)
from repro.serve import server as server_module
from repro.serve.protocol import spec_to_wire
from repro.serve.server import SNAPSHOT_NAME
from repro.service import run_specs_cached
from repro.store import ResultStore, spec_digest
from tests.test_serve_protocol import JSON_TREES


def _spec(seed=0, balancer="speed"):
    app = AppSpec(bench="ep.C", n_threads=4, total_compute_us=40_000)
    return RunSpec.make(
        "tigerton", app, balancer=balancer, cores=2, seed=seed
    )


def _fake_result(spec):
    return AppRunResult(
        app_name="fake",
        balancer=spec.balancer,
        n_cores=2,
        n_threads=2,
        seed=spec.seed,
        elapsed_us=1_000,
        total_work_us=2_000,
        migrations=0,
        thread_exec_us=[1_000, 1_000],
        thread_compute_us=[1_000, 1_000],
        thread_finish_us=[1_000, 1_000],
    )


def _json(tree):
    return json.dumps(tree, sort_keys=True)


def fake_job(monkeypatch, sleep_s, log=None, simulate=False, spans=None):
    """Make each job of a daemon booted after this call a fake one.

    Patches :func:`repro.harness.parallel.run_spec`, which a served job
    looks up when it runs; the forked workers inherit the patch.
    Each execution sleeps ``sleep_s`` and appends ``balancer/seed`` to
    ``log``, the one record the workers and the test share, and its
    monotonic start and end times to ``spans``.  The job returns
    :func:`_fake_result`, or with ``simulate`` the real run.
    """
    real = parallel.run_spec

    def run(spec):
        if log is not None:
            with open(log, "a") as f:
                f.write(f"{spec.balancer}/{spec.seed}\n")
        start = time.monotonic()
        time.sleep(sleep_s)
        if spans is not None:
            with open(spans, "a") as f:
                f.write(f"{start} {time.monotonic()}\n")
        return real(spec) if simulate else _fake_result(spec)

    monkeypatch.setattr(parallel, "run_spec", run)


def ran(log):
    """Every execution :func:`fake_job` logged to ``log``, in order."""
    return log.read_text().splitlines() if log.exists() else []


@pytest.fixture
def counting(monkeypatch, tmp_path):
    """A 10 ms fake job; the fixture's value is its execution log."""
    log = tmp_path / "runs.log"
    fake_job(monkeypatch, 0.01, log)
    return log


@pytest.fixture
def slow(monkeypatch, tmp_path):
    """A 50 ms fake job; the fixture's value is its execution log."""
    log = tmp_path / "runs.log"
    fake_job(monkeypatch, 0.05, log)
    return log


def self_store_has(bg, digest):
    return bg.server.store.contains(digest)


@pytest.fixture
def serve_client():
    """Make :class:`ServeClient`s whose pooled connections close when
    the test ends, so no socket outlives the test that opened it."""
    opened = []

    def make(base_url, **kw):
        client = ServeClient(base_url, **kw)
        opened.append(client)
        return client

    yield make
    for client in opened:
        client.close()


def _boot(tmp_path, **overrides):
    config = ServeConfig(
        store_root=str(tmp_path / "serve-store"),
        port=0,
        **overrides,
    )
    return BackgroundServer(config).start()


class TestParity:
    def test_served_results_byte_identical_to_direct(self, tmp_path, serve_client):
        """The correctness bar: serve == run_specs_cached, byte for byte."""
        specs = [_spec(seed=7, balancer=b) for b in ("speed", "load")]
        bg = _boot(tmp_path, workers=2)
        try:
            client = serve_client(bg.base_url)
            resp = client.submit(specs, tenant="parity")
            views = [
                client.wait(j["digest"], poll_s=0.02, timeout_s=60)
                for j in resp["jobs"]
            ]
            assert all(v["state"] == "done" for v in views)
            served = {
                v["digest"]: client.result(v["digest"])["result"]
                for v in views
            }
        finally:
            bg.drain()

        direct = run_specs_cached(
            specs, store=str(tmp_path / "direct-store"), workers=1
        )
        from repro.store.keys import spec_digest

        for spec, result in zip(specs, direct):
            a = json.dumps(served[spec_digest(spec)], sort_keys=True)
            b = json.dumps(result_to_dict(result), sort_keys=True)
            assert a == b

    def test_restart_serves_from_store_without_rerun(self, tmp_path, counting, serve_client):
        spec = _spec(seed=1)
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            (job,) = client.submit([spec])["jobs"]
            assert client.wait(job["digest"], poll_s=0.02)["state"] == "done"
        finally:
            bg.drain()
        assert len(ran(counting)) == 1

        bg2 = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg2.base_url)
            (job,) = client.submit([spec])["jobs"]
            assert job["state"] == "cached"  # store hit, no queue slot
            snap = client.metrics()
            assert snap["cached"] == 1
        finally:
            bg2.drain()
        assert len(ran(counting)) == 1  # never re-executed

    def test_unreadable_entry_is_not_deleted_or_rerun(
        self, tmp_path, monkeypatch, counting, serve_client
    ):
        """Only a corrupt entry is a miss; any other read error leaves the
        entry alone (and the owning worker, not the parent, deletes)."""
        spec = _spec(seed=1)
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            (job,) = client.submit([spec])["jobs"]
            assert client.wait(job["digest"], poll_s=0.02)["state"] == "done"
        finally:
            bg.drain()

        def denied(self, digest):
            raise PermissionError("read denied")

        monkeypatch.setattr(ShardedStore, "get", denied)
        bg2 = _boot(tmp_path, workers=1)
        try:
            with pytest.raises(ServeError) as err:
                serve_client(bg2.base_url).submit([spec])
            assert err.value.status == 500
            assert "PermissionError" in str(err.value)
        finally:
            bg2.drain()
        assert ResultStore(tmp_path / "serve-store").contains(job["digest"])
        assert len(ran(counting)) == 1


class TestKeying:
    def test_job_is_keyed_by_its_spec_digest(self, tmp_path, counting, serve_client):
        """A wire without the optional ``params`` or with an extra field
        is the spec it decodes to: the job is keyed, filed and fetched
        under that spec's digest, and a resubmit runs nothing."""
        from repro.serve.protocol import spec_to_wire
        from repro.store.keys import spec_digest

        specs = [_spec(seed=11), _spec(seed=12)]
        bare, extra = (spec_to_wire(s) for s in specs)
        del bare["params"]
        extra["submitted_by"] = "ci"
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            jobs = client.submit_wires([bare, extra])["jobs"]
            for spec, job in zip(specs, jobs):
                view = client.wait(job["digest"], poll_s=0.02, timeout_s=30)
                assert view["state"] == "done"
                body = client.result(job["digest"])
                assert _json(body["result"]) == _json(
                    result_to_dict(_fake_result(spec))
                )
                assert job["digest"] == spec_digest(spec)
            again = client.submit_wires([bare, extra])["jobs"]
            assert [j["digest"] for j in again] == [j["digest"] for j in jobs]
        finally:
            bg.drain()
        assert len(ran(counting)) == 2


class TestDedup:
    def test_same_digest_executes_once(self, tmp_path, counting, serve_client):
        spec = _spec(seed=2)
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            digest = client.submit([spec, spec])["jobs"][0]["digest"]
            client.submit([spec])  # resubmission attaches, never re-runs
            client.wait(digest, poll_s=0.02, timeout_s=30)
            snap = client.metrics()
            assert snap["submitted"] == 3
            assert snap["deduped"] >= 1
        finally:
            bg.drain()
        assert len(ran(counting)) == 1

    def test_concurrent_submitters_one_execution(self, tmp_path, counting, serve_client):
        spec = _spec(seed=3)
        bg = _boot(tmp_path, workers=1)
        try:
            url = bg.base_url
            views, errors = [], []

            def submit():
                try:
                    client = serve_client(url)
                    (job,) = client.submit([spec])["jobs"]
                    views.append(client.wait(job["digest"], poll_s=0.02))
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=submit) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert {v["state"] for v in views} <= {"done", "cached"}
        finally:
            bg.drain()
        assert len(ran(counting)) == 1

    def test_two_workers_file_into_one_clean_root(self, tmp_path, counting, serve_client):
        """Every worker writes the one root: each digest runs once, on
        whichever worker was idle, and the root lists and verifies it
        once."""
        specs = [_spec(seed=s) for s in range(8)]
        digests = [spec_digest(s) for s in specs]
        bg = _boot(tmp_path, workers=2)
        try:
            client = serve_client(bg.base_url)
            client.submit(specs)
            views = [client.wait(d, poll_s=0.02, timeout_s=60) for d in digests]
            assert {v["state"] for v in views} == {"done"}
            assert sorted(bg.server.store.digests()) == sorted(digests)
        finally:
            bg.drain()
        assert sorted(ran(counting)) == sorted(f"speed/{s}" for s in range(8))
        store = ResultStore(tmp_path / "serve-store")
        assert store.verify() == []
        assert sorted(store.digests()) == sorted(digests)


class TestDispatch:
    def test_any_idle_worker_takes_the_next_job(self, tmp_path, monkeypatch, serve_client):
        """Four 1-s jobs whose digests share the parity of their first
        byte (once all routed to one worker of two) run two at a time:
        both workers report busy time, and two jobs' runs overlap."""
        spans = tmp_path / "spans.log"
        fake_job(monkeypatch, 1.0, spans=spans)
        even = (s for s in map(_spec, range(64)) if int(spec_digest(s)[:2], 16) % 2 == 0)
        specs = [next(even) for _ in range(4)]
        bg = _boot(tmp_path, workers=2)
        try:
            client = serve_client(bg.base_url)
            digests = [j["digest"] for j in client.submit(specs)["jobs"]]
            views = [client.wait(d, poll_s=0.02, timeout_s=60) for d in digests]
            busy = client.metrics()["workers"]["busy_s"]
        finally:
            bg.drain()
        assert {v["state"] for v in views} == {"done"}
        assert sorted(busy) == ["0", "1"]
        assert min(busy.values()) >= 1.0
        runs = sorted(tuple(map(float, line.split())) for line in spans.read_text().splitlines())
        assert len(runs) == 4
        assert any(later[0] < earlier[1] for earlier, later in zip(runs, runs[1:]))


class TestSse:
    def test_stream_replays_full_lifecycle_in_order(self, tmp_path, slow, serve_client):
        spec = _spec(seed=4)
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            (job,) = client.submit([spec])["jobs"]
            events = list(client.events(job["digest"]))
        finally:
            bg.drain()
        names = [e for e, _ in events]
        assert names[-1] == "end"
        states = [d["state"] for e, d in events if e == "status"]
        # the full ordered lifecycle, even if we subscribed mid-run
        assert states == ["pending", "running", "done"]
        assert events[-1][1]["state"] == "done"

    def test_stream_after_terminal_replays_and_ends(self, tmp_path, counting, serve_client):
        spec = _spec(seed=5)
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            (job,) = client.submit([spec])["jobs"]
            client.wait(job["digest"], poll_s=0.02)
            events = list(client.events(job["digest"]))
        finally:
            bg.drain()
        states = [d["state"] for e, d in events if e == "status"]
        assert states == ["pending", "running", "done"]

    def test_quiet_job_outlasts_the_request_timeout(self, tmp_path, monkeypatch, serve_client):
        """The stream's read timeout is the caller's, not the client's
        per-request one: a 0.3 s client follows a 1 s job to its end."""
        fake_job(monkeypatch, 1.0)
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url, timeout_s=0.3)
            (job,) = client.submit([_spec(seed=10)])["jobs"]
            events = list(client.events(job["digest"]))
        finally:
            bg.drain()
        assert events[-1] == ("end", {"digest": job["digest"], "state": "done"})

    def test_unknown_job_events_404(self, tmp_path, serve_client):
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            with pytest.raises(ServeError) as err:
                list(client.events("ab" * 32))
            assert err.value.status == 404
        finally:
            bg.drain()


class TestBackpressure:
    def test_over_rate_batch_gets_429_with_retry_after(self, tmp_path, counting, serve_client):
        tiny = TenantConfig(name="tiny", rate=1.0, burst=3.0, queue_limit=64)
        bg = _boot(tmp_path, workers=1, tenants=(tiny,))
        try:
            client = serve_client(bg.base_url)
            specs = [_spec(seed=s) for s in range(6)]
            with pytest.raises(ServeError) as err:
                client.submit(specs, tenant="tiny")
            assert err.value.status == 429
            assert err.value.retry_after_s > 0
            # the rejection admitted nothing
            snap = client.metrics()
            assert snap["tenants"]["tiny"]["queue_depth"] == 0
            assert snap["rejected"] == 6
            # a within-burst batch still goes through afterwards
            resp = client.submit([_spec(seed=9)], tenant="tiny")
            client.wait(resp["jobs"][0]["digest"], poll_s=0.02)
        finally:
            bg.drain()

    def test_queue_overflow_gets_429(self, tmp_path, slow, serve_client):
        tiny = TenantConfig(name="tiny", rate=1000.0, burst=1000.0, queue_limit=2)
        bg = _boot(tmp_path, workers=1, tenants=(tiny,))
        try:
            client = serve_client(bg.base_url)
            with pytest.raises(ServeError) as err:
                client.submit([_spec(seed=s) for s in range(8)], tenant="tiny")
            assert err.value.status == 429
        finally:
            bg.drain()

    def test_invalid_spec_rejected_with_400(self, tmp_path, serve_client):
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            with pytest.raises(ServeError) as err:
                client.submit_wires([{"kind": "nope"}])
            assert err.value.status == 400
        finally:
            bg.drain()

    @pytest.mark.parametrize("engine", ["batched", "bogus"])
    def test_unregistered_engine_rejected_with_400(
        self, tmp_path, engine, counting, serve_client
    ):
        from repro.serve.protocol import spec_to_wire

        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            wire = spec_to_wire(_spec(seed=7))
            wire["engine"] = engine
            with pytest.raises(ServeError) as err:
                client.submit_wires([spec_to_wire(_spec(seed=8)), wire])
            assert err.value.status == 400
            assert "unknown engine backend" in str(err.value)
            # the whole batch was refused: nothing admitted, nothing run
            assert client.jobs() == []
        finally:
            bg.drain()
        assert ran(counting) == []


def _exchange(base_url, raw):
    """Send ``raw`` on one connection, close the write side, and
    return the daemon's whole response."""
    url = urlsplit(base_url)
    with socket.create_connection((url.hostname, url.port), timeout=30) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _post_status(base_url, body, length=None):
    head = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (
        len(body) if length is None else length
    )
    response = _exchange(base_url, head + body)
    assert response.startswith(b"HTTP/1.1 "), response
    return int(response.split(b" ", 2)[1])


def _connect(base_url):
    url = urlsplit(base_url)
    return socket.create_connection((url.hostname, url.port), timeout=30)


def _respawn_idle_worker(bg):
    """SIGKILL the one idle worker of ``bg``; its replacement's pid."""
    procs = bg.server._pool._procs
    old = procs[0].pid
    os.kill(old, signal.SIGKILL)
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        try:
            if procs[0].pid != old:
                return procs[0].pid
        except ValueError:  # the dead worker's handle, closed mid-respawn
            pass
        time.sleep(0.01)
    raise AssertionError("the killed worker was not respawned")


def _socket_inodes(pid):
    """The inodes of the sockets process ``pid`` holds open."""
    out = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            link = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:  # closed since the listing
            continue
        if link.startswith("socket:["):
            out.add(int(link[len("socket:["):-1]))
    return out


def _read_response(f):
    """One response from the buffered reader ``f`` of a raw socket:
    ``(status, headers, body)``, the body de-chunked; ``None`` at EOF."""
    line = f.readline()
    if not line:
        return None
    status = int(line.split(b" ", 2)[1])
    headers = {}
    while (line := f.readline()) != b"\r\n":
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":
        body = b""
        while size := int(f.readline(), 16):
            body += f.read(size)
            assert f.read(2) == b"\r\n"
        assert f.read(2) == b"\r\n"  # after the last chunk, no trailers
    else:
        body = f.read(int(headers["content-length"]))
    return status, headers, body


def _get(path):
    return b"GET %s HTTP/1.1\r\nHost: x\r\n\r\n" % path.encode()


def _post(body):
    return b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (
        len(body), body
    )


_REQUIRED = {"kind", "machine", "app", "balancer", "seed", "engine"}
#: JSON trees that cannot be a wire spec: not an object, or missing a field
_NOT_WIRES = JSON_TREES.filter(
    lambda t: not (isinstance(t, dict) and _REQUIRED <= set(t))
)
MALFORMED_BODIES = (
    st.binary(max_size=64)
    | _NOT_WIRES.map(lambda t: json.dumps(t).encode())
    | st.lists(_NOT_WIRES, min_size=1, max_size=3).map(
        lambda wires: json.dumps({"specs": wires}).encode()
    )
)


class TestMalformedRequests:
    """A request the protocol rejects gets a 400 and admits nothing."""

    def test_short_body_gets_400(self, tmp_path, serve_client):
        bg = _boot(tmp_path, workers=1)
        try:
            assert _post_status(bg.base_url, b"{}", length=100) == 400
            assert serve_client(bg.base_url).metrics()["bad_requests"] == 1
        finally:
            bg.drain()

    def test_deeply_nested_bodies_get_400(self, tmp_path, serve_client):
        wire = dict(spec_to_wire(_spec()), cores="DEEP")
        deep_wire = json.dumps({"specs": [wire]}).encode().replace(
            b'"DEEP"', b"[" * 900 + b"]" * 900
        )
        bg = _boot(tmp_path, workers=1)
        try:
            for body in (b"[" * 100_000, deep_wire):
                assert _post_status(bg.base_url, body) == 400
            assert serve_client(bg.base_url).metrics()["admitted"] == 0
        finally:
            bg.drain()

    def test_reference_leaving_repro_gets_400(self, tmp_path, counting, serve_client):
        bg = _boot(tmp_path, workers=1)
        try:
            refs = ("repro.store.store:os.getpid", "repro.cli:main",
                    "repro.store.store:ResultStore.put")
            for field in ("machine", "app"):
                for ref in refs:
                    wire = dict(spec_to_wire(_spec()),
                                **{field: {"__function__": ref}})
                    body = json.dumps({"specs": [wire]}).encode()
                    assert _post_status(bg.base_url, body) == 400
            assert serve_client(bg.base_url).metrics()["admitted"] == 0
        finally:
            bg.drain()
        assert ran(counting) == []

    def test_unrunnable_spec_values_get_400(self, tmp_path, counting, serve_client):
        """Values that would fail only in a worker -- an unknown wait
        policy, benchmark, co-runner, machine preset or balancer, a
        core subset or co-runner core no machine has, or a count below
        one -- or that would silently run another configuration (an
        unknown flavor, a bool count) are refused at admission."""
        from repro.harness.scenarios import CorunnerSpec

        spec = RunSpec.make(
            "tigerton", AppSpec(bench="ep.C", n_threads=4, total_compute_us=40_000),
            cores=2, corunner_factories=(CorunnerSpec("cpu-hog"),),
        )
        bad = ((("app", "fields", "wait"), "naptime"),
               (("app", "fields", "flavor"), "openmp"),
               (("app", "fields", "bench"), "zz.Z"),
               (("params", "corunner_factories", 0, "fields", "kind"), "dd-bench"),
               (("machine",), "cray1"),
               (("balancer",), "bogus"),
               (("cores",), [1, 1]),
               (("cores",), []),
               (("cores",), 0),
               (("cores",), [-1, 0]),
               (("cores",), True),
               (("cores",), [0, 99]),
               (("app", "fields", "n_threads"), 0),
               (("app", "fields", "n_threads"), -1),
               (("app", "fields", "n_threads"), True),
               (("app", "fields", "total_compute_us"), 0),
               (("app", "fields", "total_compute_us"), -100),
               (("app", "fields", "barrier_period_us"), 0),
               (("app", "fields", "barrier_period_us"), -5),
               (("params", "corunner_factories", 0, "fields", "core"), -1),
               (("params", "corunner_factories", 0, "fields", "core"), 99),
               (("params", "corunner_factories", 0, "fields", "j"), 0),
               (("params", "corunner_factories", 0, "fields", "jobs"), 0),
               (("params", "corunner_factories", 0, "fields", "mean_job_us"), 0))
        bg = _boot(tmp_path, workers=1)
        try:
            for path, value in bad:
                wire = spec_to_wire(spec)
                node = wire
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                body = json.dumps({"specs": [wire]}).encode()
                assert _post_status(bg.base_url, body) == 400
            assert serve_client(bg.base_url).metrics()["admitted"] == 0
        finally:
            bg.drain()
        assert ran(counting) == []

    def test_oversized_core_subsets_get_400_quickly(self, tmp_path, serve_client):
        """The daemon checks a core subset without expanding a core
        count into ids or scanning a long id list once per id."""
        bg = _boot(tmp_path, workers=1)
        try:
            for cores in (10**9, [0] * 400_000):
                wire = dict(spec_to_wire(_spec()), cores=cores)
                body = json.dumps({"specs": [wire]}).encode()
                t0 = time.monotonic()
                assert _post_status(bg.base_url, body) == 400
                assert time.monotonic() - t0 < 5.0
            assert serve_client(bg.base_url).metrics()["admitted"] == 0
        finally:
            bg.drain()

    def test_generated_malformed_bodies_get_4xx(self, tmp_path, serve_client):
        bg = _boot(tmp_path, workers=1)
        try:
            @settings(max_examples=80, deadline=None)
            @given(body=MALFORMED_BODIES)
            def check(body):
                assert 400 <= _post_status(bg.base_url, body) < 500

            check()
            snap = serve_client(bg.base_url).metrics()
            assert snap["admitted"] == 0 and snap["submitted"] == 0
        finally:
            bg.drain()


class TestConnections:
    """One connection carries many requests; the framing the daemon
    cannot trust is refused and closes it."""

    def test_one_connection_carries_many_requests(self, tmp_path, counting):
        spec = _spec(seed=40)
        digest = spec_digest(spec)
        bg = _boot(tmp_path, workers=1)
        try:
            with _connect(bg.base_url) as sock, sock.makefile("rb") as f:
                for _ in range(5):
                    sock.sendall(_get("/v1/healthz"))
                    status, headers, body = _read_response(f)
                    assert status == 200 and "connection" not in headers
                    assert json.loads(body)["status"] == "ok"
                sock.sendall(_post(json.dumps({"specs": [spec_to_wire(spec)]}).encode()))
                status, _, body = _read_response(f)
                assert status == 202
                assert json.loads(body)["jobs"][0]["digest"] == digest
                sock.sendall(_get("/v1/nope"))
                assert _read_response(f)[0] == 404  # a 404 keeps it open
                sock.sendall(_get("/v1/metrics"))
                status, _, body = _read_response(f)
            snap = json.loads(body)
            assert (snap["connections"], snap["requests"]) == (1, 8)
        finally:
            bg.drain()

    def test_pipelined_pair_is_answered_in_order(self, tmp_path):
        bg = _boot(tmp_path, workers=1)
        try:
            with _connect(bg.base_url) as sock, sock.makefile("rb") as f:
                sock.sendall(_get("/v1/healthz") + _get("/v1/jobs"))
                first, second = _read_response(f), _read_response(f)
            assert first[0] == 200 and json.loads(first[2])["status"] == "ok"
            assert second[0] == 200 and json.loads(second[2]) == {"jobs": []}
        finally:
            bg.drain()

    def test_sse_stream_then_get_on_one_connection(self, tmp_path, counting):
        spec = _spec(seed=41)
        digest = spec_digest(spec)
        bg = _boot(tmp_path, workers=1)
        try:
            with _connect(bg.base_url) as sock, sock.makefile("rb") as f:
                sock.sendall(_post(json.dumps({"specs": [spec_to_wire(spec)]}).encode()))
                assert _read_response(f)[0] == 202
                sock.sendall(_get(f"/v1/jobs/{digest}/events"))
                status, headers, body = _read_response(f)
                assert status == 200
                assert headers["transfer-encoding"] == "chunked"
                blocks = body.decode().split("\n\n")
                assert blocks[-2].startswith("event: end\n")
                assert blocks[-1] == ""
                sock.sendall(_get(f"/v1/results/{digest}"))
                status, _, body = _read_response(f)
            assert status == 200 and json.loads(body)["digest"] == digest
        finally:
            bg.drain()

    @pytest.mark.parametrize("head", [
        b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 2, 40\r\n\r\n{}",
        b"GET /v1/healthz HTTP/1.1 extra\r\n\r\n",
    ], ids=["transfer-encoding", "repeated-length", "conflicting-length",
            "malformed-line"])
    def test_refused_framing_gets_400_and_closes(self, tmp_path, head, serve_client):
        bg = _boot(tmp_path, workers=1)
        try:
            with _connect(bg.base_url) as sock, sock.makefile("rb") as f:
                sock.sendall(_get("/v1/healthz"))
                assert _read_response(f)[0] == 200
                # the refused request, and one the daemon must not read
                sock.sendall(head + _get("/v1/healthz"))
                status, headers, body = _read_response(f)
                assert status == 400 and headers["connection"] == "close"
                assert _read_response(f) is None  # closed, second unanswered
            snap = serve_client(bg.base_url).metrics()
            assert snap["bad_requests"] == 1 and snap["admitted"] == 0
        finally:
            bg.drain()

    def test_http10_event_stream_is_refused(self, tmp_path, counting, serve_client):
        # HTTP/1.0 has no chunked encoding to frame the stream with
        spec = _spec(seed=47)
        bg = _boot(tmp_path, workers=1)
        try:
            (job,) = serve_client(bg.base_url).submit([spec])["jobs"]
            with _connect(bg.base_url) as sock, sock.makefile("rb") as f:
                sock.sendall(b"GET /v1/jobs/%s/events HTTP/1.0\r\n\r\n"
                             % job["digest"].encode())
                status, headers, body = _read_response(f)
                assert status == 400 and headers["connection"] == "close"
                assert b"needs HTTP/1.1" in body
                assert _read_response(f) is None
        finally:
            bg.drain()

    def test_connection_close_is_honoured(self, tmp_path):
        bg = _boot(tmp_path, workers=1)
        try:
            with _connect(bg.base_url) as sock, sock.makefile("rb") as f:
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                status, headers, _ = _read_response(f)
                assert status == 200 and headers["connection"] == "close"
                assert _read_response(f) is None
        finally:
            bg.drain()

    def test_drain_closes_idle_connections(self, tmp_path, counting, serve_client):
        bg = _boot(tmp_path, workers=1)
        client = serve_client(bg.base_url)
        client.submit([_spec(seed=42)])
        socks = [_connect(bg.base_url) for _ in range(3)]
        try:
            # one served a request and waits for the next; two never sent one
            socks[0].sendall(_get("/v1/healthz"))
            with socks[0].makefile("rb") as f:
                assert _read_response(f)[0] == 200
            done = threading.Event()
            threading.Thread(target=lambda: (bg.drain(), done.set())).start()
            assert done.wait(30), "drain waited on idle connections"
            for sock in socks:
                assert sock.recv(1) == b""  # the daemon closed it
        finally:
            for sock in socks:
                sock.close()

    def test_drain_ends_a_live_stream_with_its_last_chunk(self, tmp_path, slow, serve_client):
        bg = _boot(tmp_path, workers=1)
        client = serve_client(bg.base_url)
        jobs = client.submit([_spec(seed=s) for s in (43, 44, 45)])["jobs"]
        stream = client.events(jobs[-1]["digest"], timeout_s=30)
        assert next(stream)[1]["state"] == "pending"  # subscribed
        done = threading.Event()
        threading.Thread(target=lambda: (bg.drain(), done.set())).start()
        rest = list(stream)
        assert done.wait(30)
        assert rest[-1] == ("end", {"digest": jobs[-1]["digest"],
                                    "state": "pending", "draining": True})
        # the stream was read to its last chunk, so its connection was
        # pooled (and the daemon has closed it since)
        assert len(client._idle) == 1

    def test_abandoned_stream_is_closed_not_pooled(self, tmp_path, slow, serve_client):
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            (job,) = client.submit([_spec(seed=46)])["jobs"]
            stream = client.events(job["digest"], timeout_s=30)
            assert next(stream)[0] == "status"
            stream.close()  # mid-response: the connection cannot be reused
            assert client._idle == []
            assert client.healthz()["status"] == "ok"
            assert client.metrics()["connections"] == 2
        finally:
            bg.drain()

    def test_pooled_connection_closed_by_the_daemon_is_retried(self, tmp_path, serve_client):
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            client.healthz()
            # the daemon closes every connection waiting for a request,
            # here the client's pooled one
            waiting = bg.server._waiting
            bg._loop.call_soon_threadsafe(lambda: [w.close() for w in list(waiting)])
            deadline = time.monotonic() + 10
            while waiting and time.monotonic() < deadline:
                time.sleep(0.01)
            assert client.healthz()["status"] == "ok"
            assert client.metrics()["connections"] == 2
        finally:
            bg.drain()

    def test_idle_connection_is_closed_but_a_stream_is_not(
        self, tmp_path, slow, serve_client, monkeypatch
    ):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            jobs = client.submit([_spec(seed=s) for s in range(50, 56)])["jobs"]
            with _connect(bg.base_url) as sock:
                start = time.monotonic()
                # six 50 ms jobs on one worker: the stream outlasts the limit
                events = list(client.events(jobs[-1]["digest"], timeout_s=30))
                assert events[-1] == ("end", {"digest": jobs[-1]["digest"], "state": "done"})
                assert time.monotonic() - start > 0.2
                assert sock.recv(1) == b""  # the silent connection was closed
        finally:
            bg.drain()

    def test_pooled_connection_idle_past_the_limit_is_resent(
        self, tmp_path, serve_client, monkeypatch
    ):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            assert client.healthz()["status"] == "ok"
            deadline = time.monotonic() + 10
            while bg.server._open and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not bg.server._open  # the daemon closed the pooled one
            assert len(client._idle) == 1
            assert client.healthz()["status"] == "ok"  # through the resend
            assert client.metrics()["connections"] == 2
        finally:
            bg.drain()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_respawned_worker_holds_no_daemon_socket(self, tmp_path):
        """A worker forked after the socket is bound holds neither the
        listening socket nor an accepted connection."""
        bg = _boot(tmp_path, workers=1)
        try:
            with _connect(bg.base_url) as sock, sock.makefile("rb") as f:
                sock.sendall(_get("/v1/healthz"))
                assert _read_response(f)[0] == 200
                (writer,) = bg.server._open
                daemon = {
                    os.fstat(s.fileno()).st_ino
                    for s in (bg.server._server.sockets[0], writer.get_extra_info("socket"))
                }
                pid = _respawn_idle_worker(bg)
                deadline = time.monotonic() + 10
                while daemon & _socket_inodes(pid) and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not daemon & _socket_inodes(pid)
        finally:
            bg.drain()

    def test_idle_limit_closes_a_connection_despite_a_respawn(self, tmp_path, monkeypatch):
        """The daemon's close reaches the client: a respawned worker
        does not keep the connection open."""
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.5)
        bg = _boot(tmp_path, workers=1)
        try:
            with _connect(bg.base_url) as sock, sock.makefile("rb") as f:
                sock.sendall(_get("/v1/healthz"))
                assert _read_response(f)[0] == 200
                _respawn_idle_worker(bg)
                sock.settimeout(5)
                assert sock.recv(1) == b""
        finally:
            bg.drain()

    def test_drain_with_the_idle_limit_says_bye(self, tmp_path, serve_client):
        # the daemon as ``repro serve`` runs it, SIGTERM included
        script = (
            "import sys; from repro.serve import server; "
            "server.IDLE_TIMEOUT_S = 0.2; "
            "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "serve", "--store", str(tmp_path / "s"),
             "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            base_url = line.split("listening on ", 1)[1].split()[0]
            client = serve_client(base_url)
            assert client.healthz()["status"] == "ok"
            with _connect(base_url) as sock:
                assert sock.recv(1) == b""  # closed by the idle limit
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "repro serve: drained, bye" in out

    def test_a_failed_retry_is_not_retried_again(self, serve_client):
        """Only the first request on a server answers; the client's
        pooled connection then fails, its one retry fails, and the error
        reaches the caller after exactly two connections."""
        listener = socket.create_server(("127.0.0.1", 0))
        accepted = []

        def serve():
            for n in range(2):
                conn, _ = listener.accept()
                accepted.append(conn)
                with conn.makefile("rb") as f:
                    while f.readline() not in (b"\r\n", b""):
                        pass
                    if n == 0:
                        conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                        while f.readline() not in (b"\r\n", b""):
                            pass
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        # a third connection would wait on the listener's backlog and
        # time out instead of failing with ConnectionError
        client = serve_client(f"http://127.0.0.1:{listener.getsockname()[1]}", timeout_s=5)
        try:
            assert client.healthz() == {}
            with pytest.raises(ConnectionError):
                client.healthz()
            assert len(accepted) == 2
        finally:
            listener.close()
            thread.join(10)
        assert not thread.is_alive()

    def test_threads_sharing_one_client(self, tmp_path, counting, serve_client):
        """Eight threads drive full jobs (submit, SSE, fetch) through one
        client, switching often; every call succeeds (two threads on one
        connection would break its exchange) and no thread opens more
        than one connection."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        bg = _boot(tmp_path, workers=1)
        client = serve_client(bg.base_url)
        errors, results = [], {}
        deadline = time.monotonic() + 60

        def drive(k):
            try:
                for i in range(4):
                    spec = _spec(seed=1000 + 10 * k + i % 2)
                    (job,) = client.submit([spec], tenant=f"t{k}")["jobs"]
                    events = list(client.events(job["digest"], timeout_s=30))
                    assert events[-1][0] == "end"
                    results[(k, i)] = client.result(job["digest"])["digest"]
                    assert time.monotonic() < deadline
            except BaseException as exc:  # reported on the main thread
                errors.append(exc)

        try:
            threads = [threading.Thread(target=drive, args=(k,)) for k in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(90)
            assert not any(th.is_alive() for th in threads)
            assert errors == []
            assert len(results) == 32
            snap = client.metrics()
            assert snap["bad_requests"] == 0
            # 96 job calls + metrics; each thread holds one connection
            # at a time, so at most one per thread is ever opened
            assert snap["requests"] == 97
            assert snap["connections"] <= 8
        finally:
            sys.setswitchinterval(interval)
            bg.drain()


class TestFairness:
    def test_three_tenant_overload_no_starvation(self, tmp_path, counting, serve_client):
        """The acceptance scenario: a flood cannot starve small tenants."""
        bg = _boot(tmp_path, workers=1, window_s=60.0)
        try:
            client = serve_client(bg.base_url)
            flood = [_spec(seed=100 + s) for s in range(20)]
            alice = [_spec(seed=200 + s) for s in range(3)]
            bob = [_spec(seed=300 + s) for s in range(3)]
            client.submit(flood, tenant="flood")
            a_jobs = client.submit(alice, tenant="alice")["jobs"]
            b_jobs = client.submit(bob, tenant="bob")["jobs"]
            for j in a_jobs + b_jobs:
                client.wait(j["digest"], poll_s=0.02, timeout_s=60)
            snap = client.metrics()
            # the flood is still deep in queue when the small tenants
            # are fully served -- speed-aware dispatch interleaved them
            assert snap["tenants"]["flood"]["queue_depth"] > 0
            assert snap["tenants"]["alice"]["completed"] == 3
            assert snap["tenants"]["bob"]["completed"] == 3
            # drain the rest so shutdown has nothing in flight
            for j in client.jobs(tenant="flood"):
                client.wait(j["digest"], poll_s=0.02, timeout_s=60)
        finally:
            bg.drain()


class TestDrain:
    def test_drain_snapshots_and_resume_runs_each_job_once(self, tmp_path, slow, serve_client):
        specs = [_spec(seed=s) for s in range(8)]
        bg = _boot(tmp_path, workers=1)
        client = serve_client(bg.base_url)
        digests = [j["digest"] for j in client.submit(specs)["jobs"]]
        bg.drain()  # SIGTERM path: finish in-flight, snapshot the rest

        snapshot_path = tmp_path / "serve-store" / SNAPSHOT_NAME
        ran_before = len(ran(slow))
        assert 0 < ran_before < len(specs)  # drain beat the queue
        snapshot = json.loads(snapshot_path.read_text())
        snapshot_digests = {j["digest"] for j in snapshot["jobs"]}
        assert len(snapshot["jobs"]) == len(specs) - ran_before
        assert snapshot_digests <= set(digests)

        bg2 = _boot(tmp_path, workers=1)
        try:
            assert not snapshot_path.exists()  # consumed on resume
            client = serve_client(bg2.base_url)
            # resubmit the full batch: pre-drain completions come back
            # as store hits, snapshot-resumed jobs dedup onto the queue
            client.submit(specs)
            views = [
                client.wait(d, poll_s=0.02, timeout_s=60) for d in digests
            ]
            assert {v["state"] for v in views} <= {"done", "cached"}
            assert all(self_store_has(bg2, d) for d in digests)
        finally:
            bg2.drain()
        # every job ran exactly once across both daemon lifetimes: the
        # pre-drain completions were never re-executed on resume
        assert len(ran(slow)) == len(specs)
        assert len(set(ran(slow))) == len(specs)

    def test_corrupt_entry_reruns_once_across_resume(
        self, tmp_path, monkeypatch, serve_client
    ):
        """A completed job whose entry is corrupted while the daemon is
        down runs exactly once more on resume; nothing else re-runs."""
        log = tmp_path / "runs.log"
        fake_job(monkeypatch, 0.05, log, simulate=True)
        specs = [_spec(seed=s) for s in range(8)]
        bg = _boot(tmp_path, workers=1)
        digests = [
            j["digest"] for j in serve_client(bg.base_url).submit(specs)["jobs"]
        ]
        bg.drain()

        snapshot = json.loads((tmp_path / "serve-store" / SNAPSHOT_NAME).read_text())
        queued = {j["digest"] for j in snapshot["jobs"]}
        completed = [d for d in digests if d not in queued]
        assert completed and queued
        victim = completed[0]
        store = ShardedStore(tmp_path / "serve-store", 1)
        entry = store._object_dir(victim) / "entry.json"
        data = bytearray(entry.read_bytes())
        data[len(data) // 2] ^= 0xFF
        entry.write_bytes(bytes(data))

        bg2 = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg2.base_url)
            client.submit(specs)
            views = {
                d: client.wait(d, poll_s=0.02, timeout_s=60) for d in digests
            }
            assert views[victim]["state"] == "done"
            served = client.result(victim)["result"]
        finally:
            bg2.drain()
        spec = specs[digests.index(victim)]
        assert _json(served) == _json(result_to_dict(run_spec(spec)))
        assert sorted(ran(log)) == sorted(
            f"{s.balancer}/{s.seed}" for s in [*specs, spec]
        )
        assert store.verify() == []


class TestTimeouts:
    def test_hung_worker_killed_and_job_fails_with_timeout(
        self, tmp_path, monkeypatch, serve_client
    ):
        fake_job(monkeypatch, 600.0)
        bg = _boot(tmp_path, workers=1, job_timeout_s=0.5)
        try:
            client = serve_client(bg.base_url)
            (job,) = client.submit([_spec(seed=6)])["jobs"]
            view = client.wait(job["digest"], poll_s=0.05, timeout_s=30)
            assert view["state"] == "failed"
            assert "timeout" in view["error"]
            assert client.metrics()["timeouts"] == 1
        finally:
            bg.drain()

    def test_job_whose_run_raises_fails_after_one_run(
        self, tmp_path, monkeypatch, serve_client
    ):
        """A run that raises fails its job with ``Type: message`` the
        first time, without a second run; the job beside it is
        untouched."""
        log = tmp_path / "ran.log"
        fake_job(monkeypatch, 0.0, log=log)
        logged = parallel.run_spec

        def run(spec):
            result = logged(spec)
            if spec.seed == 3:
                raise RuntimeError("boom")
            return result

        monkeypatch.setattr(parallel, "run_spec", run)
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            bad, good = client.submit([_spec(seed=3), _spec(seed=4)])["jobs"]
            view = client.wait(bad["digest"], poll_s=0.05, timeout_s=30)
            assert view["state"] == "failed" and view["error"] == "RuntimeError: boom"
            states = [v["state"] for e, v in client.events(bad["digest"]) if e == "status"]
            assert states == ["pending", "running", "failed"]
            assert client.wait(good["digest"], poll_s=0.05, timeout_s=30)["state"] == "done"
            assert sorted(ran(log)) == ["speed/3", "speed/4"]
            assert client.metrics()["failed"] == 1
        finally:
            bg.drain()

    def test_dead_worker_fails_its_job_and_is_respawned(
        self, tmp_path, monkeypatch, serve_client
    ):
        """With no job timeout (the ``repro serve`` default), a worker
        process that dies mid-job neither wedges that job nor the jobs
        queued behind it, and the drain still completes."""
        log = tmp_path / "ran.log"
        fake_job(monkeypatch, 60.0, log=log)
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            (long_job,) = client.submit([_spec(seed=1)])["jobs"]
            deadline = time.monotonic() + 20
            while ran(log) != ["speed/1"] and time.monotonic() < deadline:
                time.sleep(0.02)
            assert ran(log) == ["speed/1"]
            monkeypatch.undo()  # the respawned worker runs jobs quickly
            fake_job(monkeypatch, 0.0)
            (queued,) = client.submit([_spec(seed=2)])["jobs"]
            os.kill(bg.server._pool._procs[0].pid, signal.SIGKILL)
            view = client.wait(long_job["digest"], poll_s=0.05, timeout_s=20)
            assert view["state"] == "failed"
            assert "worker died" in view["error"]
            view = client.wait(queued["digest"], poll_s=0.05, timeout_s=20)
            assert view["state"] == "done"
        finally:
            bg.drain(timeout_s=20)

    def test_failed_job_reruns_when_resubmitted(self, tmp_path, monkeypatch, serve_client):
        """Resubmitting is the one retry: a job whose run raised ends
        ``failed`` after one run, and a resubmit of its spec is
        admitted, runs once more and is served."""
        log = tmp_path / "ran.log"
        marker = tmp_path / "fail-next-run"
        marker.touch()
        fake_job(monkeypatch, 0.0, log=log)
        logged = parallel.run_spec

        def run(spec):
            result = logged(spec)
            if marker.exists():  # the forked worker sees the test's file
                marker.unlink()
                raise RuntimeError("first run fails")
            return result

        monkeypatch.setattr(parallel, "run_spec", run)
        spec = _spec(seed=8)
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            (job,) = client.submit([spec])["jobs"]
            digest = job["digest"]
            view = client.wait(digest, poll_s=0.05, timeout_s=30)
            assert (view["state"], view["error"]) == ("failed", "RuntimeError: first run fails")
            assert ran(log) == ["speed/8"]

            client.submit([spec])
            assert client.wait(digest, poll_s=0.05, timeout_s=30)["state"] == "done"
            assert ran(log) == ["speed/8", "speed/8"]
            assert client.metrics()["deduped"] == 0
            served = client.result(digest)["result"]
        finally:
            bg.drain()
        assert _json(served) == _json(result_to_dict(_fake_result(spec)))


class TestResults:
    @pytest.mark.parametrize("damage", ["corrupt", "deleted"])
    def test_done_job_whose_entry_goes_bad_is_rerun_on_resubmit(
        self, tmp_path, counting, serve_client, damage
    ):
        """A done job's entry that is corrupted or deleted afterwards
        (``repro store gc`` evicts) answers 404, and the next submit of
        its spec runs it again instead of attaching to the record."""
        spec = _spec(seed=5)
        bg = _boot(tmp_path, workers=1)
        try:
            client = serve_client(bg.base_url)
            digest = client.submit([spec])["jobs"][0]["digest"]
            assert client.wait(digest, poll_s=0.02)["state"] == "done"
            store = ResultStore(tmp_path / "serve-store")
            if damage == "corrupt":
                entry = store._object_dir(digest) / "entry.json"
                data = bytearray(entry.read_bytes())
                data[len(data) // 2] ^= 0xFF
                entry.write_bytes(bytes(data))
            else:
                assert store.delete(digest)
            with pytest.raises(ServeError) as err:
                client.result(digest)
            assert err.value.status == 404 and "no stored result" in str(err.value)

            client.submit([spec])
            assert client.wait(digest, poll_s=0.02)["state"] == "done"
            served = client.result(digest)["result"]
            assert client.metrics()["deduped"] == 0
        finally:
            bg.drain()
        assert ran(counting) == ["speed/5", "speed/5"]
        assert _json(served) == _json(result_to_dict(_fake_result(spec)))
        assert store.verify() == []


class TestStartup:
    def test_failed_bind_stops_the_workers_and_keeps_the_snapshot(
        self, tmp_path, counting, serve_client
    ):
        """A daemon whose port is taken leaves no worker process or
        thread behind, and the queue snapshot waits for the next start."""
        spec = _spec(seed=9)
        root = tmp_path / "serve-store"
        root.mkdir()
        snapshot = root / SNAPSHOT_NAME
        snapshot.write_text(json.dumps({"schema": 1, "jobs": [
            {"digest": spec_digest(spec), "tenant": "t", "wire": spec_to_wire(spec)},
        ]}))
        children = set(multiprocessing.active_children())
        threads = set(threading.enumerate())
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            config = ServeConfig(
                store_root=str(root), port=taken.getsockname()[1], workers=2
            )
            with pytest.raises(RuntimeError, match="failed to start"):
                BackgroundServer(config).start()
        assert set(multiprocessing.active_children()) <= children
        assert set(threading.enumerate()) <= threads
        assert snapshot.exists()

        bg = _boot(tmp_path, workers=1)
        try:
            view = serve_client(bg.base_url).wait(spec_digest(spec), poll_s=0.02)
            assert view["state"] == "done"
        finally:
            bg.drain()
        assert ran(counting) == ["speed/9"]

    @pytest.mark.parametrize("snapshot", [
        {"schema": 1, "jobs": [{"digest": "ab" * 32, "tenant": "t"}]},
        {"schema": 1, "jobs": "x"},
        [1, 2],
    ], ids=["job-without-wire", "jobs-not-a-list", "not-an-object"])
    def test_malformed_snapshot_is_ignored(
        self, tmp_path, counting, serve_client, capsys, snapshot
    ):
        root = tmp_path / "serve-store"
        root.mkdir()
        (root / SNAPSHOT_NAME).write_text(json.dumps(snapshot))
        bg = _boot(tmp_path, workers=1)
        try:
            err = capsys.readouterr().err
            assert f"ignoring unreadable queue snapshot {root / SNAPSHOT_NAME}" in err
            client = serve_client(bg.base_url)
            (job,) = client.submit([_spec(seed=2)])["jobs"]
            assert client.wait(job["digest"], poll_s=0.02)["state"] == "done"
        finally:
            bg.drain()
        assert ran(counting) == ["speed/2"]
