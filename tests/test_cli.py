"""Tests for the command-line interface."""

import contextlib
import io
import json

import pytest

from repro.apps.workloads import AppSpec
from repro.cli import _submit_specs, build_parser, main
from repro.store import spec_digest


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_balancer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--balancer", "wfq"])

    def test_rejects_unknown_bench(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--bench", "lu.Z"])


class TestCommands:
    def test_machines(self):
        rc, out = run_cli(["machines"])
        assert rc == 0
        assert "tigerton" in out and "barcelona" in out and "nehalem" in out

    def test_benches(self):
        rc, out = run_cli(["benches"])
        assert rc == 0
        assert "ft.B" in out and "RSS" in out

    def test_model(self):
        rc, out = run_cli(["model", "--threads", "3", "--cores", "2"])
        assert rc == 0
        assert "Lemma 1 step bound" in out
        assert "2" in out

    def test_run_quick(self):
        rc, out = run_cli([
            "run", "--bench", "ep.C", "--threads", "4", "--cores", "2",
            "--seconds", "0.1", "--repeats", "1",
            "--balancer", "speed", "pinned",
        ])
        assert rc == 0
        assert "SPEED" in out and "PINNED" in out
        assert "ideal speedup 2" in out

    def test_run_omp_wait(self):
        rc, out = run_cli([
            "run", "--bench", "bt.A", "--threads", "3", "--cores", "2",
            "--seconds", "0.05", "--repeats", "1", "--balancer", "speed",
            "--wait", "omp-default",
        ])
        assert rc == 0
        assert "omp-default barriers" in out and "SPEED" in out


class TestStoreCommands:
    SUBMIT = [
        "submit", "--threads", "4", "--cores", "2", "--seconds", "0.05",
        "--repeats", "1", "--balancer", "speed",
    ]

    def _submit(self, store, *extra):
        return run_cli([*self.SUBMIT, "--store", store, *extra])

    def test_submit_then_cached(self, tmp_path):
        store = str(tmp_path / "s")
        rc, out = self._submit(store)
        assert rc == 0
        assert "1 executed" in out and "0 cached" in out
        rc, out = self._submit(store, "--expect-cached")
        assert rc == 0
        assert "1 cached" in out and "0 executed" in out

    def test_expect_cached_fails_on_cold_store(self, tmp_path, capsys):
        rc = main([*self.SUBMIT, "--store", str(tmp_path / "s"),
                   "--expect-cached"])
        assert rc == 1
        assert "expected a fully cached batch" in capsys.readouterr().err

    def test_submit_json(self, tmp_path):
        import json

        rc, out = self._submit(str(tmp_path / "s"), "--json")
        assert rc == 0
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["result"]["app_name"] == "ep.C"
        assert len(payload[0]["digest"]) == 64

    def test_status_and_fetch(self, tmp_path):
        store = str(tmp_path / "s")
        import json

        _, out = self._submit(store, "--json")
        digest = json.loads(out)[0]["digest"]

        rc, out = run_cli(["status", "--store", store])
        assert rc == 0
        assert digest[:12] in out and "speed" in out

        rc, out = run_cli(["fetch", digest[:8], "--store", store, "--json"])
        assert rc == 0
        assert json.loads(out)["result"]["app_name"] == "ep.C"

    def test_fetch_unknown_digest_clean_error(self, tmp_path, capsys):
        self._submit(str(tmp_path / "s"))
        rc = main(["fetch", "0000", "--store", str(tmp_path / "s")])
        assert rc == 2
        assert "no store entry" in capsys.readouterr().err

    def test_store_maintenance(self, tmp_path):
        store = str(tmp_path / "s")
        self._submit(store)
        rc, out = run_cli(["store", "stats", "--store", store])
        assert rc == 0 and "entries" in out
        rc, out = run_cli(["store", "verify", "--store", store])
        assert rc == 0 and "clean" in out
        rc, out = run_cli(["store", "gc", "--store", store, "--max-entries", "0"])
        assert rc == 0 and "evicted 1" in out

    def test_verify_reports_corruption(self, tmp_path):
        import json

        store = str(tmp_path / "s")
        _, out = self._submit(store, "--json")
        digest = json.loads(out)[0]["digest"]
        from repro.store import ResultStore

        path = ResultStore(store)._object_dir(digest) / "entry.json"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        rc, out = run_cli(["store", "verify", "--store", store])
        assert rc == 1
        assert "corrupt" in out

    def test_sanitize_stored(self, tmp_path):
        store = str(tmp_path / "s")
        self._submit(store, "--trace")
        rc, out = run_cli(["sanitize", "--store", store, "--stored"])
        assert rc == 0
        assert "sanitize: ok" in out and "1 stored trace" in out

    @pytest.mark.parametrize("as_json", [False, True])
    def test_sanitize_stored_goes_past_a_damaged_trace(self, tmp_path, capsys, as_json):
        from repro.store import ResultStore

        store = str(tmp_path / "s")
        rc, out = run_cli([*self.SUBMIT[:-1], "speed", "load", "--store", store,
                           "--trace", "--json"])
        assert rc == 0
        damaged, clean = (job["digest"] for job in json.loads(out))
        path = ResultStore(store)._object_dir(damaged) / "trace.json.gz"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        capsys.readouterr()

        rc, out = run_cli(["sanitize", "--store", store, "--stored",
                           *(["--json"] if as_json else [])])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{damaged[:12]}: ")
        if as_json:
            assert json.loads(out) == []
        else:
            assert f"{clean[:12]}: 0 finding(s)" in out
            assert "1 damaged" in out

    def test_sanitize_stored_without_traces_errors(self, tmp_path, capsys):
        store = str(tmp_path / "s")
        self._submit(store)  # no --trace
        rc = main(["sanitize", "--store", store, "--stored"])
        assert rc == 2
        assert "no traced entries" in capsys.readouterr().err


class TestWatchAndTimeout:
    SUBMIT = TestStoreCommands.SUBMIT

    def test_status_watch_returns_when_digest_present(self, tmp_path):
        import json

        store = str(tmp_path / "s")
        _, out = run_cli([*self.SUBMIT, "--store", store, "--json"])
        digest = json.loads(out)[0]["digest"]
        rc, out = run_cli([
            "status", digest[:10], "--store", store,
            "--watch", "--interval", "0.01", "--timeout", "5",
        ])
        assert rc == 0
        assert digest[:12] in out

    def test_status_watch_times_out_on_missing_digest(self, tmp_path, capsys):
        rc = main([
            "status", "feed" * 16, "--store", str(tmp_path / "s"),
            "--watch", "--interval", "0.01", "--timeout", "0.05",
        ])
        assert rc == 1
        assert "still waiting" in capsys.readouterr().err

    def test_job_timeout_rejects_trace(self, tmp_path, capsys):
        rc = main([
            *self.SUBMIT, "--store", str(tmp_path / "s"),
            "--trace", "--job-timeout", "5",
        ])
        assert rc == 2
        assert "does not combine with trace" in capsys.readouterr().err


def _daemon(tmp_path, workers=1):
    from repro.serve import BackgroundServer, ServeConfig

    return BackgroundServer(ServeConfig(
        store_root=str(tmp_path / "serve-store"), port=0, workers=workers,
    )).start()


@pytest.fixture(params=["store", "url"])
def target(request, tmp_path):
    """The job verbs' target flags: a store directory or a live daemon."""
    if request.param == "store":
        yield ["--store", str(tmp_path / "s")]
        return
    bg = _daemon(tmp_path)
    try:
        yield ["--url", bg.base_url]
    finally:
        bg.drain()


class TestJobVerbs:
    """`repro submit | status | fetch`, the same verbs on both targets."""

    SUBMIT = TestStoreCommands.SUBMIT

    def _digest(self, target):
        rc, out = run_cli([*self.SUBMIT, *target, "--json"])
        assert rc == 0
        return json.loads(out)[0]["digest"]

    def test_submit_then_resubmit_expect_cached(self, target):
        rc, out = run_cli([*self.SUBMIT, *target])
        assert rc == 0
        assert "done" in out and "1 job(s): 1 unique, 0 cached, 1 executed" in out
        rc, out = run_cli([*self.SUBMIT, *target, "--expect-cached"])
        assert rc == 0
        assert "1 cached, 0 executed" in out

    def test_expect_cached_fails_when_a_job_runs(self, target, capsys):
        rc = main([*self.SUBMIT, *target, "--expect-cached"])
        assert rc == 1
        assert "expected a fully cached batch" in capsys.readouterr().err

    @pytest.fixture
    def failing_app(self, monkeypatch):
        """Every app build raises, so a valid spec's run fails in the
        worker; requested before ``target``, so a daemon's workers fork
        with the patch."""
        def fail(self, system):
            raise RuntimeError("the app failed to build")

        monkeypatch.setattr(AppSpec, "__call__", fail)

    def test_failed_job_exits_1_naming_it(self, failing_app, target, capsys):
        argv = [*self.SUBMIT, *target]
        assert main(argv) == 1
        (spec,) = _submit_specs(build_parser().parse_args(argv))
        err = capsys.readouterr().err
        assert "repro submit:" in err and spec_digest(spec)[:12] in err

    def test_zero_threads_refused_before_submitting(self, target, capsys):
        assert main([*self.SUBMIT, *target, "--threads", "0"]) == 2
        assert "n_threads must be an int >= 1" in capsys.readouterr().err

    def test_core_subset_outside_machine_refused_before_submitting(self, target, capsys):
        # cores 16..19 do not exist on tigerton: the spec is refused
        assert main([*self.SUBMIT, *target, "--cores", "20"]) == 2
        assert "outside machine 'tigerton'" in capsys.readouterr().err

    def test_submit_json(self, target):
        rc, out = run_cli([*self.SUBMIT, *target, "--json"])
        assert rc == 0
        (job,) = json.loads(out)
        assert set(job) == {"digest", "result"}
        assert len(job["digest"]) == 64 and job["result"]["app_name"] == "ep.C"

    def test_status_listing(self, target):
        digest = self._digest(target)
        rc, out = run_cli(["status", *target])
        assert rc == 0
        if target[0] == "--store":
            assert digest[:12] in out and "1 entry" in out
        else:
            assert json.loads(out)["completed"] == 1
        rc, out = run_cli(["status", digest[:10], *target])
        assert rc == 0 and digest[:12] in out

    def test_status_watch_succeeds(self, target):
        digest = self._digest(target)
        rc, out = run_cli(["status", digest[:10], *target, "--watch",
                           "--interval", "0.01", "--timeout", "60"])
        assert rc == 0 and digest[:12] in out
        if target[0] == "--url":
            events = [json.loads(line) for line in out.splitlines()]
            states = [e["state"] for e in events if e["event"] == "status"]
            assert states == ["pending", "running", "done"]
            assert events[-1] == {"event": "end", "digest": digest, "state": "done"}

    def test_fetch_text_and_json(self, target):
        digest = self._digest(target)
        rc, out = run_cli(["fetch", digest[:8], *target])
        assert rc == 0
        assert digest in out and "speedup" in out
        rc, out = run_cli(["fetch", digest[:8], *target, "--json"])
        assert rc == 0
        body = json.loads(out)
        assert body["digest"] == digest and body["result"]["app_name"] == "ep.C"

    def test_bad_prefixes_exit_2(self, target, capsys):
        # 6 balancers x 3 seeds = 18 digests: two must share a first hex digit
        rc, out = run_cli([
            "submit", "--threads", "2", "--cores", "2", "--seconds", "0.01",
            "--repeats", "3", "--balancer", "load", "speed", "pinned", "dwrr",
            "ule", "none", *target, "--json",
        ])
        assert rc == 0
        firsts = [job["digest"][0] for job in json.loads(out)]
        shared = next(c for c in firsts if firsts.count(c) > 1)
        for prefix in (shared, "0" * 64, "XYZ"):
            for verb in (["fetch", prefix], ["status", prefix]):
                assert main([*verb, *target]) == 2, (verb, prefix)
        err = capsys.readouterr().err
        assert "ambiguous" in err and "matches digest prefix" in err
        assert "invalid digest prefix" in err

    def test_wrong_target_flag_exits_2(self, target, capsys):
        if target[0] == "--store":
            wrong = ["--tenant", "ci"]
        else:
            wrong = ["--workers", "2", "--trace", "--job-timeout", "5"]
        assert main([*self.SUBMIT, *target, *wrong]) == 2
        err = capsys.readouterr().err
        assert "not accepted with" in err
        assert all(f in err for f in wrong if f.startswith("--"))


class TestOneJobCli:
    """What holds across the two targets, or of the merged verbs alone."""

    SUBMIT = TestStoreCommands.SUBMIT

    def test_submit_json_byte_identical_on_store_and_url(self, tmp_path):
        bg = _daemon(tmp_path)
        try:
            _, served = run_cli([*self.SUBMIT, "--url", bg.base_url, "--json"])
        finally:
            bg.drain()
        _, direct = run_cli([*self.SUBMIT, "--store", str(tmp_path / "s"), "--json"])
        assert served == direct and json.loads(direct)

    def test_failed_batch_reported_byte_identically_on_store_and_url(
        self, tmp_path, monkeypatch, capsys
    ):
        """Each failed digest is named once, in batch order, with the
        run's error, and both targets print the same stderr; ``status
        --watch`` names a failed job the same way."""
        from repro.harness import parallel

        real = parallel.run_spec

        def run(spec):
            if spec.balancer == "speed":
                raise RuntimeError("boom")
            return real(spec)

        monkeypatch.setattr(parallel, "run_spec", run)  # before the workers fork
        argv = ["submit", "--threads", "4", "--cores", "2", "--seconds", "0.02",
                "--repeats", "2", "--balancer", "speed", "speed", "load"]
        speed = list(dict.fromkeys(
            spec_digest(s) for s in _submit_specs(build_parser().parse_args(argv))
            if s.balancer == "speed"
        ))
        want = "repro submit: 2 job(s) failed: " + "; ".join(
            f"{d[:12]}...: RuntimeError: boom" for d in speed
        ) + "\n"
        bg = _daemon(tmp_path)
        try:
            assert main([*argv, "--url", bg.base_url]) == 1
            served = capsys.readouterr().err
            assert main(["status", speed[0][:10], "--url", bg.base_url, "--watch"]) == 1
            watched = capsys.readouterr().err
        finally:
            bg.drain()
        assert main([*argv, "--store", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err == served == want
        assert watched == f"repro status: 1 job(s) failed: {speed[0][:12]}...: RuntimeError: boom\n"

    def test_served_batch_is_cached_for_the_store_target(self, tmp_path):
        """The daemon's workers file results in its root, so a direct
        submit of the same sweep on that root runs nothing."""
        sweep = ["submit", "--threads", "4", "--cores", "2", "--seconds", "0.05",
                 "--repeats", "2", "--balancer", "speed", "load"]
        bg = _daemon(tmp_path, workers=2)
        try:
            rc, _ = run_cli([*sweep, "--url", bg.base_url])
            assert rc == 0
        finally:
            bg.drain()
        root = str(tmp_path / "serve-store")
        rc, out = run_cli([*sweep, "--store", root, "--expect-cached"])
        assert rc == 0
        assert "4 cached, 0 executed" in out

    def test_unreachable_url_exits_1(self, capsys):
        rc = main(["status", "--url", "http://127.0.0.1:9"])
        assert rc == 1
        assert "repro status: cannot reach" in capsys.readouterr().err

    def test_store_and_url_together_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["fetch", "ab", "--store", "s", "--url", "http://127.0.0.1:9"])
        assert exc.value.code == 2

    def test_client_verb_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["client", "metrics"])
        assert exc.value.code == 2

    def test_watch_needs_a_digest(self, tmp_path, capsys):
        assert main(["status", "--store", str(tmp_path / "s"), "--watch"]) == 2
        assert "needs at least one digest" in capsys.readouterr().err

    def test_watch_timeout_covers_the_whole_set(self, tmp_path, capsys, monkeypatch):
        """One deadline for all digests: 4 jobs x 0.4 s on one worker
        cannot all finish inside 0.6 s, though each finishes within
        0.6 s of its predecessor (a per-job deadline would pass)."""
        from repro.apps.workloads import AppSpec
        from repro.harness.parallel import RunSpec
        from repro.serve import ServeClient
        from tests.test_serve_server import fake_job

        app = AppSpec(bench="ep.C", n_threads=4, total_compute_us=50_000)
        specs = [RunSpec.make("tigerton", app, cores=2, seed=s) for s in range(4)]
        fake_job(monkeypatch, 0.4)
        bg = _daemon(tmp_path)
        try:
            client = ServeClient(bg.base_url)
            jobs = client.submit(specs)["jobs"]
            client.close()
            rc = main(["status", "--url", bg.base_url, "--watch",
                       *[j["digest"] for j in jobs], "--timeout", "0.6"])
        finally:
            bg.drain()
        assert rc == 1
        assert "still waiting on" in capsys.readouterr().err


class TestCliErrorHandling:
    def test_oversized_core_subset_clean_error(self, capsys):
        rc = main([
            "run", "--bench", "ep.C", "--threads", "4", "--cores", "20",
            "--seconds", "0.05", "--repeats", "1", "--balancer", "speed",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "core subset" in err and "tigerton" in err

    def test_zero_threads_clean_error(self, capsys):
        rc = main([
            "run", "--threads", "0", "--cores", "2",
            "--seconds", "0.05", "--repeats", "1",
        ])
        assert rc == 2
        assert "n_threads" in capsys.readouterr().err
