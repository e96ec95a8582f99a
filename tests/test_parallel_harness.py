"""Serial-vs-parallel equivalence of the experiment harness.

The process-pool fan-out (:mod:`repro.harness.parallel`) must be a
pure performance feature: every result it returns has to be
bit-identical to what the default serial path produces, in the same
order.  These tests pin that down with canonical JSON byte comparison
across machines and balancer modes, plus the pickling contract that
makes the fan-out possible.
"""

import json
import os
import pickle
import time

import pytest

from repro.analysis.sanitizer import run_digest
from repro.apps.workloads import AppSpec, ep_app
from repro.harness import parallel
from repro.harness.experiment import repeat_run, run_app
from repro.harness.parallel import (
    MACHINE_PRESETS,
    RunSpec,
    SpecTimeoutError,
    map_specs,
    resolve_machine,
    run_spec,
)
from repro.harness.pool import WorkerDiedError
from repro.topology import presets

#: small-but-real workload: 6 threads on 4 cores, 0.1 simulated seconds
SPEC = AppSpec(bench="ep.C", n_threads=6, wait="yield", total_compute_us=100_000)


def ep_factory(system):
    """Module-level factory: picklable by reference."""
    return ep_app(system, n_threads=6, total_compute_us=100_000)


def crashing_factory(system):
    """Module-level factory whose worker process dies mid-job, as a
    crash in the native core or an OOM kill would end it."""
    os._exit(1)


#: the log and plan of :func:`timed_run`, set by :func:`timed_job`
_TIMED: dict = {}


def timed_run(spec):
    """:func:`run_spec` that logs its start and end to ``_TIMED["log"]``
    and first waits as ``_TIMED["plan"]`` says (see :func:`timed_job`).
    Module-level, so it pickles by reference where a pool ships it."""
    def note(what):
        with open(_TIMED["log"], "a") as f:
            f.write(f"{what} {spec.seed} {time.monotonic()}\n")

    note("start")
    how = _TIMED["plan"].get(spec.seed, 1.0)
    if how == "crash":
        time.sleep(0.2)
        os._exit(3)
    time.sleep(how)
    result = run_spec(spec)
    note("end")
    return result


def timed_job(monkeypatch, log, plan):
    """Make each pool job a :func:`timed_run` logging to ``log``.

    Patches :func:`repro.harness.parallel.run_spec`, which a pool
    worker looks up when it runs a job; the forked workers inherit the
    patch.  The job for seed ``s`` first sleeps ``plan[s]`` seconds
    (1 s if the plan names no time), or with ``"crash"`` exits its
    process with code 3 after 0.2 s.
    """
    monkeypatch.setitem(_TIMED, "log", log)
    monkeypatch.setitem(_TIMED, "plan", plan)
    monkeypatch.setattr(parallel, "run_spec", timed_run)


def logged(log, what):
    """``[(seed, time)]`` of every ``what`` (start or end) :func:`timed_job` logged."""
    rows = [line.split() for line in log.read_text().splitlines()]
    return [(int(seed), float(t)) for w, seed, t in rows if w == what]


def canonical(result) -> str:
    """Byte-exact form of an AppRunResult."""
    return json.dumps(result.as_dict(), sort_keys=True)


class TestAppSpec:
    def test_callable_as_app_factory(self):
        res = run_app(presets.uniform(4), SPEC, balancer="pinned", cores=4)
        assert res.app_name == "ep.C"
        assert res.n_threads == 6

    def test_matches_equivalent_closure(self):
        a = run_app(presets.uniform(4), SPEC, balancer="speed", cores=4, seed=2)
        b = run_app(presets.uniform(4), ep_factory, balancer="speed", cores=4, seed=2)
        assert canonical(a) == canonical(b)

    def test_pickles(self):
        assert pickle.loads(pickle.dumps(SPEC)) == SPEC

    def test_barrier_period_selects_modified_ep(self, uniform4):
        app = AppSpec(total_compute_us=50_000, barrier_period_us=10_000,
                      n_threads=4).build(uniform4)
        assert app.name == "ep.mod"

    def test_unknown_wait_mode_rejected(self):
        with pytest.raises(ValueError, match="wait mode"):
            AppSpec(wait="naptime")

    def test_unknown_bench_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            AppSpec(bench="lu.Z")
        # the modified-EP shape ignores bench
        assert AppSpec(bench="lu.Z", barrier_period_us=1_000).bench == "lu.Z"


class TestRunSpec:
    def test_make_normalizes(self):
        spec = RunSpec.make("tigerton", SPEC, cores=[2, 0, 1], seed=3,
                            limit_us=5_000_000)
        assert spec.cores == (2, 0, 1)
        assert spec.params == (("limit_us", 5_000_000),)

    def test_resolves_preset_names(self):
        assert resolve_machine("tigerton") is MACHINE_PRESETS["tigerton"]
        with pytest.raises(ValueError, match="unknown machine preset"):
            resolve_machine("cray1")

    def test_run_spec_matches_run_app(self):
        spec = RunSpec.make("barcelona", SPEC, balancer="load", cores=4, seed=5)
        direct = run_app(presets.barcelona, SPEC, balancer="load", cores=4, seed=5)
        assert canonical(run_spec(spec)) == canonical(direct)

    def test_pickles_with_preset_name_and_spec(self):
        spec = RunSpec.make("tigerton", SPEC, cores=(0, 1), seed=1)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestMapSpecs:
    def specs(self, n=3):
        return [RunSpec.make("tigerton", SPEC, balancer="speed", cores=4, seed=s)
                for s in range(n)]

    def test_serial_order(self):
        results = map_specs(self.specs(), workers=1)
        assert [r.seed for r in results] == [0, 1, 2]

    def test_parallel_identical_to_serial(self):
        serial = map_specs(self.specs(), workers=1)
        parallel = map_specs(self.specs(), workers=2)
        assert [canonical(r) for r in serial] == [canonical(r) for r in parallel]

    def test_unpicklable_spec_rejected_clearly(self):
        bad = [RunSpec.make("tigerton", lambda s: ep_factory(s), seed=0),
               RunSpec.make("tigerton", SPEC, seed=1)]
        with pytest.raises(ValueError, match="does not pickle.*workers=1"):
            map_specs(bad, workers=2)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            map_specs(self.specs(), workers=0)

    def test_timeout_spares_the_jobs_queued_behind(self):
        """A hung job times out alone: the jobs waiting behind it get its
        worker's replacement and their own deadlines."""
        hung = RunSpec.make(
            "tigerton",
            AppSpec(bench="cg.B", n_threads=16, total_compute_us=400_000_000),
            cores=12,
        )
        fast = self.specs(2)
        out = map_specs([hung, *fast], workers=1, timeout_s=3,
                        return_exceptions=True)
        assert isinstance(out[0], SpecTimeoutError)
        assert [run_digest(r) for r in out[1:]] == \
               [run_digest(run_spec(s)) for s in fast]

    def test_hung_job_times_out_alone_and_the_rest_start_once(
        self, tmp_path, monkeypatch
    ):
        """Only the overdue worker is killed: the job beside the hung one
        and the job behind it each start once and keep their results."""
        log = tmp_path / "runs.log"
        timed_job(monkeypatch, log, {0: 600.0})
        specs = self.specs(3)
        out = map_specs(specs, workers=2, timeout_s=1.5, return_exceptions=True)
        assert isinstance(out[0], SpecTimeoutError)
        assert [run_digest(r) for r in out[1:]] == \
               [run_digest(run_spec(s)) for s in specs[1:]]
        assert sorted(seed for seed, _ in logged(log, "start")) == [0, 1, 2]

    def test_crash_fails_alone_while_the_rest_run_side_by_side(
        self, tmp_path, monkeypatch
    ):
        """A worker's death fails its own job, naming the exit code, and
        the healthy jobs keep running in the other workers meanwhile."""
        log = tmp_path / "runs.log"
        timed_job(monkeypatch, log, {0: "crash"})
        specs = self.specs(4)
        out = map_specs(specs, workers=4, return_exceptions=True)
        assert isinstance(out[0], WorkerDiedError)
        assert "exit code 3" in str(out[0])
        assert [run_digest(r) for r in out[1:]] == \
               [run_digest(run_spec(s)) for s in specs[1:]]
        starts = dict(logged(log, "start"))
        ends = dict(logged(log, "end"))
        assert sorted(ends) == [1, 2, 3]
        assert max(starts[s] for s in ends) < min(ends.values())

    @pytest.mark.parametrize("workers, timeout_s", [(2, None), (1, 30)])
    def test_crashed_worker_fails_only_its_own_job(self, workers, timeout_s):
        """A job that kills its worker process fails alone: the jobs
        beside and behind it run in the other workers or the dead one's
        replacement and still succeed."""
        crash = RunSpec.make("tigerton", crashing_factory, cores=4)
        fast = self.specs(2)
        out = map_specs([crash, *fast], workers=workers, timeout_s=timeout_s,
                        return_exceptions=True)
        assert isinstance(out[0], WorkerDiedError)
        assert [run_digest(r) for r in out[1:]] == \
               [run_digest(run_spec(s)) for s in fast]

    def test_single_spec_runs_in_a_worker_when_workers_exceed_one(self):
        crash = RunSpec.make("tigerton", crashing_factory, cores=4)
        (out,) = map_specs([crash], workers=2, return_exceptions=True)
        assert isinstance(out, WorkerDiedError)


class TestRepeatRunEquivalence:
    """The satellite: byte-identical results on two machines x three modes."""

    @pytest.mark.parametrize("machine_name", ["tigerton", "barcelona"])
    @pytest.mark.parametrize("balancer", ["speed", "load", "pinned"])
    def test_workers4_bit_identical_to_serial(self, machine_name, balancer):
        machine = MACHINE_PRESETS[machine_name]
        serial = repeat_run(machine, SPEC, balancer=balancer, cores=4,
                            seeds=range(2), workers=1)
        parallel = repeat_run(machine, SPEC, balancer=balancer, cores=4,
                              seeds=range(2), workers=4)
        assert [canonical(r) for r in serial.runs] == \
               [canonical(r) for r in parallel.runs]

    def test_extra_kwargs_cross_the_pool(self):
        serial = repeat_run(presets.tigerton, SPEC, balancer="speed", cores=4,
                            seeds=range(2), workers=1, limit_us=10_000_000)
        parallel = repeat_run(presets.tigerton, SPEC, balancer="speed", cores=4,
                              seeds=range(2), workers=2, limit_us=10_000_000)
        assert [canonical(r) for r in serial.runs] == \
               [canonical(r) for r in parallel.runs]

    def test_module_level_factory_works_in_workers(self):
        serial = repeat_run(presets.tigerton, ep_factory, balancer="load",
                            cores=4, seeds=[3, 4], workers=1)
        parallel = repeat_run(presets.tigerton, ep_factory, balancer="load",
                              cores=4, seeds=[3, 4], workers=2)
        assert [canonical(r) for r in serial.runs] == \
               [canonical(r) for r in parallel.runs]

