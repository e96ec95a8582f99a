"""End-to-end tests for the serving daemon (repro.serve.server).

Each test boots a real daemon on an ephemeral port, with the forked
worker processes ``repro serve`` deploys, and talks to it through
:class:`repro.serve.ServeClient` -- the same HTTP path production
traffic takes.  A test that needs a fake job installs one with
:func:`fake_job` before booting; the workers inherit it.
"""

import json
import socket
import threading
import time
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.serve.protocol import spec_to_wire
from repro.serve.server import SNAPSHOT_NAME
from repro.serve.workers import shard_index
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


def fake_job(monkeypatch, sleep_s, log=None, simulate=False):
    """Make each job of a daemon booted after this call a fake one.

    Patches :func:`repro.harness.parallel.run_spec`, which the workers'
    job service executes through; the forked workers inherit the patch.
    Each execution sleeps ``sleep_s`` and appends ``balancer/seed`` to
    ``log``, the one record the workers and the test share.  The job
    returns :func:`_fake_result`, or with ``simulate`` the real run.
    """
    real = parallel.run_spec

    def run(spec):
        if log is not None:
            with open(log, "a") as f:
                f.write(f"{spec.balancer}/{spec.seed}\n")
        time.sleep(sleep_s)
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


def _boot(tmp_path, **overrides):
    config = ServeConfig(
        store_root=str(tmp_path / "serve-store"),
        port=0,
        **overrides,
    )
    return BackgroundServer(config).start()


class TestParity:
    def test_served_results_byte_identical_to_direct(self, tmp_path):
        """The correctness bar: serve == run_specs_cached, byte for byte."""
        specs = [_spec(seed=7, balancer=b) for b in ("speed", "load")]
        bg = _boot(tmp_path, workers=2)
        try:
            client = ServeClient(bg.base_url)
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

    def test_restart_serves_from_store_without_rerun(self, tmp_path, counting):
        spec = _spec(seed=1)
        bg = _boot(tmp_path, workers=1)
        try:
            client = ServeClient(bg.base_url)
            (job,) = client.submit([spec])["jobs"]
            assert client.wait(job["digest"], poll_s=0.02)["state"] == "done"
        finally:
            bg.drain()
        assert len(ran(counting)) == 1

        bg2 = _boot(tmp_path, workers=1)
        try:
            client = ServeClient(bg2.base_url)
            (job,) = client.submit([spec])["jobs"]
            assert job["state"] == "cached"  # store hit, no queue slot
            snap = client.metrics()
            assert snap["cached"] == 1
        finally:
            bg2.drain()
        assert len(ran(counting)) == 1  # never re-executed

    def test_unreadable_entry_is_not_deleted_or_rerun(
        self, tmp_path, monkeypatch, counting
    ):
        """Only a corrupt entry is a miss; any other read error leaves the
        entry alone (and the owning worker, not the parent, deletes)."""
        spec = _spec(seed=1)
        bg = _boot(tmp_path, workers=1)
        try:
            client = ServeClient(bg.base_url)
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
                ServeClient(bg2.base_url).submit([spec])
            assert err.value.status == 500
            assert "PermissionError" in str(err.value)
        finally:
            bg2.drain()
        assert ResultStore(tmp_path / "serve-store").contains(job["digest"])
        assert len(ran(counting)) == 1


class TestKeying:
    def test_job_is_keyed_by_its_spec_digest(self, tmp_path, counting):
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
            client = ServeClient(bg.base_url)
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
    def test_same_digest_executes_once(self, tmp_path, counting):
        spec = _spec(seed=2)
        bg = _boot(tmp_path, workers=1)
        try:
            client = ServeClient(bg.base_url)
            digest = client.submit([spec, spec])["jobs"][0]["digest"]
            client.submit([spec])  # resubmission attaches, never re-runs
            client.wait(digest, poll_s=0.02, timeout_s=30)
            snap = client.metrics()
            assert snap["submitted"] == 3
            assert snap["deduped"] >= 1
        finally:
            bg.drain()
        assert len(ran(counting)) == 1

    def test_concurrent_submitters_one_execution(self, tmp_path, counting):
        spec = _spec(seed=3)
        bg = _boot(tmp_path, workers=1)
        try:
            url = bg.base_url
            views, errors = [], []

            def submit():
                try:
                    client = ServeClient(url)
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

    def test_two_workers_file_into_one_clean_root(self, tmp_path, counting):
        """Every worker writes the one root: each digest runs once, on the
        worker it routes to, and the root lists and verifies it once."""
        specs = [_spec(seed=s) for s in range(8)]
        digests = [spec_digest(s) for s in specs]
        assert {shard_index(d, 2) for d in digests} == {0, 1}
        bg = _boot(tmp_path, workers=2)
        try:
            client = ServeClient(bg.base_url)
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


class TestSse:
    def test_stream_replays_full_lifecycle_in_order(self, tmp_path, slow):
        spec = _spec(seed=4)
        bg = _boot(tmp_path, workers=1)
        try:
            client = ServeClient(bg.base_url)
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

    def test_stream_after_terminal_replays_and_ends(self, tmp_path, counting):
        spec = _spec(seed=5)
        bg = _boot(tmp_path, workers=1)
        try:
            client = ServeClient(bg.base_url)
            (job,) = client.submit([spec])["jobs"]
            client.wait(job["digest"], poll_s=0.02)
            events = list(client.events(job["digest"]))
        finally:
            bg.drain()
        states = [d["state"] for e, d in events if e == "status"]
        assert states == ["pending", "running", "done"]

    def test_quiet_job_outlasts_the_request_timeout(self, tmp_path, monkeypatch):
        """The stream's read timeout is the caller's, not the client's
        per-request one: a 0.3 s client follows a 1 s job to its end."""
        fake_job(monkeypatch, 1.0)
        bg = _boot(tmp_path, workers=1)
        try:
            client = ServeClient(bg.base_url, timeout_s=0.3)
            (job,) = client.submit([_spec(seed=10)])["jobs"]
            events = list(client.events(job["digest"]))
        finally:
            bg.drain()
        assert events[-1] == ("end", {"digest": job["digest"], "state": "done"})

    def test_unknown_job_events_404(self, tmp_path):
        bg = _boot(tmp_path, workers=1)
        try:
            client = ServeClient(bg.base_url)
            with pytest.raises(ServeError) as err:
                list(client.events("ab" * 32))
            assert err.value.status == 404
        finally:
            bg.drain()


class TestBackpressure:
    def test_over_rate_batch_gets_429_with_retry_after(self, tmp_path, counting):
        tiny = TenantConfig(name="tiny", rate=1.0, burst=3.0, queue_limit=64)
        bg = _boot(tmp_path, workers=1, tenants=(tiny,))
        try:
            client = ServeClient(bg.base_url)
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

    def test_queue_overflow_gets_429(self, tmp_path, slow):
        tiny = TenantConfig(name="tiny", rate=1000.0, burst=1000.0, queue_limit=2)
        bg = _boot(tmp_path, workers=1, tenants=(tiny,))
        try:
            client = ServeClient(bg.base_url)
            with pytest.raises(ServeError) as err:
                client.submit([_spec(seed=s) for s in range(8)], tenant="tiny")
            assert err.value.status == 429
        finally:
            bg.drain()

    def test_invalid_spec_rejected_with_400(self, tmp_path):
        bg = _boot(tmp_path, workers=1)
        try:
            client = ServeClient(bg.base_url)
            with pytest.raises(ServeError) as err:
                client.submit_wires([{"kind": "nope"}])
            assert err.value.status == 400
        finally:
            bg.drain()

    @pytest.mark.parametrize("engine", ["batched", "bogus"])
    def test_unregistered_engine_rejected_with_400(self, tmp_path, engine, counting):
        from repro.serve.protocol import spec_to_wire

        bg = _boot(tmp_path, workers=1)
        try:
            client = ServeClient(bg.base_url)
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

    def test_short_body_gets_400(self, tmp_path):
        bg = _boot(tmp_path, workers=1)
        try:
            assert _post_status(bg.base_url, b"{}", length=100) == 400
            assert ServeClient(bg.base_url).metrics()["bad_requests"] == 1
        finally:
            bg.drain()

    def test_deeply_nested_bodies_get_400(self, tmp_path):
        wire = dict(spec_to_wire(_spec()), cores="DEEP")
        deep_wire = json.dumps({"specs": [wire]}).encode().replace(
            b'"DEEP"', b"[" * 900 + b"]" * 900
        )
        bg = _boot(tmp_path, workers=1)
        try:
            for body in (b"[" * 100_000, deep_wire):
                assert _post_status(bg.base_url, body) == 400
            assert ServeClient(bg.base_url).metrics()["admitted"] == 0
        finally:
            bg.drain()

    def test_generated_malformed_bodies_get_4xx(self, tmp_path):
        bg = _boot(tmp_path, workers=1)
        try:
            @settings(max_examples=80, deadline=None)
            @given(body=MALFORMED_BODIES)
            def check(body):
                assert 400 <= _post_status(bg.base_url, body) < 500

            check()
            snap = ServeClient(bg.base_url).metrics()
            assert snap["admitted"] == 0 and snap["submitted"] == 0
        finally:
            bg.drain()


class TestFairness:
    def test_three_tenant_overload_no_starvation(self, tmp_path, counting):
        """The acceptance scenario: a flood cannot starve small tenants."""
        bg = _boot(tmp_path, workers=1, window_s=60.0)
        try:
            client = ServeClient(bg.base_url)
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
    def test_drain_snapshots_and_resume_runs_each_job_once(self, tmp_path, slow):
        specs = [_spec(seed=s) for s in range(8)]
        bg = _boot(tmp_path, workers=1)
        client = ServeClient(bg.base_url)
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
            client = ServeClient(bg2.base_url)
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

    def test_corrupt_entry_reruns_once_across_resume(self, tmp_path, monkeypatch):
        """A completed job whose entry is corrupted while the daemon is
        down runs exactly once more on resume; nothing else re-runs."""
        log = tmp_path / "runs.log"
        fake_job(monkeypatch, 0.05, log, simulate=True)
        specs = [_spec(seed=s) for s in range(8)]
        bg = _boot(tmp_path, workers=1)
        digests = [
            j["digest"] for j in ServeClient(bg.base_url).submit(specs)["jobs"]
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
            client = ServeClient(bg2.base_url)
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
        self, tmp_path, monkeypatch
    ):
        fake_job(monkeypatch, 600.0)
        bg = _boot(tmp_path, workers=1, job_timeout_s=0.5, max_attempts=1)
        try:
            client = ServeClient(bg.base_url)
            (job,) = client.submit([_spec(seed=6)])["jobs"]
            view = client.wait(job["digest"], poll_s=0.05, timeout_s=30)
            assert view["state"] == "failed"
            assert "timeout" in view["error"]
            assert client.metrics()["timeouts"] == 1
        finally:
            bg.drain()
