"""Tests for the deduplicating job service (repro.service)."""

import multiprocessing
import time

import pytest

import repro.service.jobs as jobs
from repro.analysis.sanitizer import run_digest
from repro.apps.workloads import AppSpec
from repro.harness.parallel import RunSpec, run_spec
from repro.service import JobFailedError, JobService, run_specs_cached
from repro.store import ResultStore, spec_digest


def _spec(seed=0, balancer="speed"):
    app = AppSpec(bench="ep.C", n_threads=4, total_compute_us=40_000)
    return RunSpec.make(
        "tigerton", app, balancer=balancer, cores=2, seed=seed
    )


#: one entry per build of :func:`failing_factory` in this process
BUILDS: list = []


def failing_factory(system):
    """Module-level app factory whose build raises."""
    BUILDS.append(1)
    raise RuntimeError("boom")


class TestSubmit:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        specs = [_spec(seed=s) for s in range(3)]

        first = JobService(store)
        results = first.submit(specs)
        assert first.executed == 3
        assert [r.seed for r in results] == [0, 1, 2]

        second = JobService(store)
        cached = second.submit(specs)
        assert second.executed == 0
        assert [run_digest(r) for r in cached] == [run_digest(r) for r in results]
        assert set(second.states.values()) == {"cached"}

    def test_within_batch_dedup(self, tmp_path):
        service = JobService(ResultStore(tmp_path / "s"))
        spec = _spec()
        results = service.submit([spec, spec, spec])
        assert service.executed == 1
        assert len(results) == 3
        assert results[0] is results[1] is results[2]

    def test_cached_equals_fresh_digest(self, tmp_path):
        spec = _spec()
        fresh = run_spec(spec)
        service = JobService(ResultStore(tmp_path / "s"))
        (stored,) = service.submit([spec])
        (cached,) = JobService(service.store).submit([spec])
        assert run_digest(stored) == run_digest(fresh)
        assert run_digest(cached) == run_digest(fresh)

    def test_trace_archival(self, tmp_path):
        service = JobService(ResultStore(tmp_path / "s"))
        spec = _spec()
        service.submit([spec], trace=True)
        digest = spec_digest(spec)
        entry = service.store.get(digest)
        assert entry.has_trace
        trace = service.store.load_trace(digest)
        assert trace.segments

    def test_trace_upgrades_traceless_cached_entry(self, tmp_path):
        from repro.analysis.sanitizer import run_digest

        store = ResultStore(tmp_path / "s")
        spec = _spec()
        (plain,) = JobService(store).submit([spec])
        digest = spec_digest(spec)
        assert not store.get(digest).has_trace

        service = JobService(store)
        (traced,) = service.submit([spec], trace=True)
        assert service.executed == 1  # re-run to archive the trace
        assert store.get(digest).has_trace
        assert run_digest(traced) == run_digest(plain)

        # once archived, a traced resubmit is a pure cache hit
        again = JobService(store)
        again.submit([spec], trace=True)
        assert again.executed == 0

    def test_failed_traced_resubmit_keeps_the_untraced_entry(
        self, tmp_path, monkeypatch
    ):
        """The untraced entry goes only when its traced replacement is
        ready to file: a traced rerun that fails leaves it served."""
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        (plain,) = JobService(store).submit([spec])
        digest = spec_digest(spec)

        def boom(spec):
            raise RuntimeError("traced run failed")

        monkeypatch.setattr(jobs, "run_traced", boom)
        with pytest.raises(JobFailedError, match="traced run failed"):
            JobService(store).submit([spec], trace=True)
        entry = store.get(digest)
        assert entry is not None and not entry.has_trace
        assert store.verify() == []
        again = JobService(store)
        (cached,) = again.submit([spec])
        assert again.executed == 0
        assert run_digest(cached) == run_digest(plain)

    def test_corrupt_entry_recomputed_never_returned(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = JobService(store).submit([spec]) and spec_digest(spec)
        path = store._object_dir(digest) / "entry.json"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))

        service = JobService(store)
        (result,) = service.submit([spec])
        assert service.executed == 1  # recomputed, not served corrupt
        assert run_digest(result) == run_digest(run_spec(spec))
        assert store.verify() == []


class TestRetries:
    """A failed job runs once per submit; submitting it again is the
    retry."""

    def _flaky(self, monkeypatch, failures_by_digest):
        """Patch the service's executor to fail N times per digest."""
        real = jobs.map_specs

        def flaky(specs, workers=1, return_exceptions=False, **kwargs):
            out = []
            for spec, result in zip(specs, real(specs, workers=workers,
                                               return_exceptions=True)):
                d = spec_digest(spec)
                if failures_by_digest.get(d, 0) > 0:
                    failures_by_digest[d] -= 1
                    out.append(RuntimeError("injected worker crash"))
                else:
                    out.append(result)
            return out

        monkeypatch.setattr(jobs, "map_specs", flaky)

    def test_failed_job_runs_once_then_a_resubmit_files_it(self, tmp_path, monkeypatch):
        spec = _spec()
        digest = spec_digest(spec)
        failures = {digest: 1}
        self._flaky(monkeypatch, failures)
        store = ResultStore(tmp_path / "s")
        first = JobService(store)
        with pytest.raises(JobFailedError):
            first.submit([spec])
        assert failures == {digest: 0}  # one run, no second in the submit
        assert first.states == {digest: "failed"} and first.executed == 0
        assert not store.contains(spec)

        second = JobService(store)
        (result,) = second.submit([spec])
        assert second.states == {digest: "done"} and second.executed == 1
        assert run_digest(result) == run_digest(run_spec(spec))
        assert run_digest(store.get(digest).result) == run_digest(result)

    def test_raising_run_is_built_once_and_nothing_sleeps(self, tmp_path, monkeypatch):
        """A batch that repeats a failing spec builds its app once,
        names its digest once and never backs off."""
        naps = []
        monkeypatch.setattr(time, "sleep", naps.append)
        BUILDS.clear()
        spec = RunSpec.make("tigerton", failing_factory, cores=2)
        service = JobService(ResultStore(tmp_path / "s"))
        with pytest.raises(JobFailedError) as err:
            service.submit([spec, spec])
        assert len(BUILDS) == 1 and naps == []
        digest = spec_digest(spec)
        assert err.value.failures == {digest: "RuntimeError: boom"}
        assert str(err.value) == f"1 job(s) failed: {digest[:12]}...: RuntimeError: boom"

    def test_failed_job_fails_loudly(self, tmp_path, monkeypatch):
        good, bad = _spec(seed=0), _spec(seed=1)
        self._flaky(monkeypatch, {spec_digest(bad): 99})
        service = JobService(ResultStore(tmp_path / "s"))
        with pytest.raises(
            JobFailedError,
            match=rf"^1 job\(s\) failed: {spec_digest(bad)[:12]}\.\.\.: "
                  r"RuntimeError: injected worker crash$",
        ):
            service.submit([good, bad])
        # the good spec still completed and was stored
        assert service.states == {
            spec_digest(good): "done", spec_digest(bad): "failed",
        }
        assert service.store.contains(good)
        assert not service.store.contains(bad)


class TestTimeouts:
    def _slow_spec(self):
        # enough simulated compute that wall-clock time far exceeds the
        # budget below, so the deadline always fires
        app = AppSpec(bench="ep.C", n_threads=4, total_compute_us=30_000_000)
        return RunSpec.make("tigerton", app, balancer="speed", cores=2)

    def test_timed_out_job_fails_with_timeout_reason(self, tmp_path):
        spec = self._slow_spec()
        service = JobService(ResultStore(tmp_path / "s"))
        with pytest.raises(
            JobFailedError,
            match=rf"^1 job\(s\) failed: {spec_digest(spec)[:12]}\.\.\.: "
                  r"SpecTimeoutError: timeout",
        ):
            service.submit([spec], timeout_s=0.2)
        assert service.states == {spec_digest(spec): "failed"}
        assert not service.store.contains(spec)

    def test_hung_job_fails_alone(self, tmp_path):
        """The jobs queued behind a hung one in a full pool still run:
        only the hung digest fails."""
        hung = RunSpec.make(
            "tigerton",
            AppSpec(bench="cg.B", n_threads=16, total_compute_us=400_000_000),
            cores=12,
        )
        fast = [_spec(seed=s) for s in range(2)]
        service = JobService(ResultStore(tmp_path / "s"))
        with pytest.raises(JobFailedError, match=r"^1 job\(s\) failed") as err:
            service.submit([hung, *fast], timeout_s=2)
        assert spec_digest(hung)[:12] in str(err.value)
        assert service.executed == 2
        for spec in fast:
            assert run_digest(service.store.get(spec).result) == \
                   run_digest(run_spec(spec))

    def test_crashed_worker_fails_alone(self, tmp_path):
        """A job whose worker process dies fails by itself, and the jobs
        beside it run."""
        from tests.test_parallel_harness import crashing_factory

        crash = RunSpec.make("tigerton", crashing_factory, cores=4)
        fast = [_spec(seed=s) for s in range(2)]
        service = JobService(ResultStore(tmp_path / "s"))
        with pytest.raises(JobFailedError, match=r"^1 job\(s\) failed") as err:
            service.submit([crash, *fast], workers=2)
        assert f"{spec_digest(crash)[:12]}...: WorkerDiedError: worker died" \
            in str(err.value)
        assert service.states[spec_digest(crash)] == "failed"
        assert service.executed == 2
        for spec in fast:
            assert run_digest(service.store.get(spec).result) == \
                   run_digest(run_spec(spec))

    def test_timeout_leaves_fast_jobs_untouched(self, tmp_path):
        fast = _spec()
        service = JobService(ResultStore(tmp_path / "s"))
        (result,) = service.submit([fast], timeout_s=120.0)
        assert run_digest(result) == run_digest(run_spec(fast))
        assert service.states == {spec_digest(fast): "done"}

    def test_timeout_rejects_trace(self, tmp_path):
        service = JobService(ResultStore(tmp_path / "s"))
        with pytest.raises(ValueError, match="trace"):
            service.submit([_spec()], trace=True, timeout_s=1.0)


def _submit_in_child(root, queue):
    """Child-process worker for the cross-process dedup race test."""
    try:
        (result,) = run_specs_cached([_spec(seed=77)], root)
        queue.put(("ok", run_digest(result)))
    except Exception as exc:  # pragma: no cover - surfaced in parent
        queue.put(("error", repr(exc)))


class TestConcurrency:
    def test_cross_process_same_digest_single_entry(self, tmp_path):
        """Two processes race the same spec: one store entry, same bytes."""
        root = str(tmp_path / "s")
        queue = multiprocessing.Queue()
        procs = [
            multiprocessing.Process(
                target=_submit_in_child, args=(root, queue)
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        outcomes = [queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        assert [kind for kind, _ in outcomes] == ["ok", "ok"], outcomes
        digests = {payload for _, payload in outcomes}
        assert len(digests) == 1  # byte-identical results in both processes

        store = ResultStore(root)
        spec = _spec(seed=77)
        assert store.contains(spec)
        assert store.verify() == []  # the racing writes corrupted nothing
        entry = store.get(spec_digest(spec))
        assert run_digest(entry.result) == digests.pop()


class TestRunSpecsCached:
    def test_accepts_path_store_and_service(self, tmp_path):
        spec = _spec()
        root = str(tmp_path / "s")
        by_path = run_specs_cached([spec], root)
        by_store = run_specs_cached([spec], ResultStore(root))
        service = JobService(ResultStore(root))
        by_service = run_specs_cached([spec], service)
        by_pathlib = run_specs_cached([spec], tmp_path / "s")
        digests = {run_digest(r[0]) for r in (by_path, by_store, by_service, by_pathlib)}
        assert len(digests) == 1
        assert service.executed == 0  # everything after the first was cached
