"""Smoke tests for the named harness scenarios (tiny parameters).

The full-size versions run in benchmarks/; these verify the scenario
plumbing (specs, keys, aggregation, one batch per grid) quickly.
"""

import dataclasses

import pytest

from repro.analysis.sanitizer import run_digest
from repro.apps.barriers import WaitPolicy
from repro.apps.multiprogram import MakeWorkload
from repro.apps.workloads import AppSpec, make_nas_app
from repro.harness import parallel, scenarios
from repro.harness.experiment import run_app
from repro.metrics.results import RepeatedResult
from repro.sim.backends import backend_available
from repro.topology import presets


class TestEpSpeedupSeries:
    def test_returns_per_core_results(self):
        out = scenarios.ep_speedup_series(
            balancer="pinned", core_counts=[2, 4], seeds=range(2),
            total_compute_us=50_000,
        )
        assert set(out) == {2, 4}
        assert all(isinstance(v, RepeatedResult) for v in out.values())
        assert out[4].mean_speedup > out[2].mean_speedup

    def test_one_per_core_scales(self):
        out = scenarios.ep_speedup_series(
            one_per_core=True, core_counts=[2, 4], seeds=range(2),
            total_compute_us=50_000,
        )
        assert out[4].mean_speedup > 3.5


class TestBalanceIntervalSweep:
    def test_keys_are_period_interval_pairs(self):
        out = scenarios.balance_interval_sweep(
            barrier_periods_us=[1_000],
            balance_intervals_us=[50_000],
            total_compute_us=50_000,
            seeds=range(1),
        )
        assert list(out) == [(1_000, 50_000)]


class TestNpbImprovement:
    def test_grid_keys(self):
        out = scenarios.npb_improvement(
            benches=["sp.A"], core_counts=[4], balancers=["pinned"],
            seeds=range(1), total_compute_us=20_000,
        )
        assert list(out) == [("sp.A", 4, "pinned")]


class TestCpuHogSeries:
    def test_hog_limits_one_per_core(self):
        out = scenarios.cpu_hog_series(
            balancer="pinned", one_per_core=True, core_counts=[2],
            seeds=range(1), total_compute_us=50_000,
        )
        # one thread per core with a hog on core 0: half speed
        assert out[2].mean_speedup < 1.3


class TestMakeShareSeries:
    def test_returns_bench_mode_grid(self):
        out = scenarios.make_share_series(
            benches=["sp.A"], balancers=["pinned"], seeds=range(1),
            total_compute_us=20_000, j=2,
        )
        assert list(out) == [("sp.A", "pinned")]


#: each figure function at 2 cells x 2 seeds, and its keys in grid order
#: (listed out of sorted order, so a sorting regroup would show)
TINY_GRIDS = [
    pytest.param(
        "ep_speedup_series",
        dict(core_counts=[3, 2], n_threads=4, total_compute_us=20_000),
        [3, 2],
        id="ep_speedup_series",
    ),
    pytest.param(
        "balance_interval_sweep",
        dict(barrier_periods_us=[2_000], balance_intervals_us=[50_000, 20_000],
             total_compute_us=30_000),
        [(2_000, 50_000), (2_000, 20_000)],
        id="balance_interval_sweep",
    ),
    pytest.param(
        "npb_improvement",
        dict(benches=["sp.A"], core_counts=[3], balancers=["speed", "load"],
             n_threads=4, total_compute_us=20_000),
        [("sp.A", 3, "speed"), ("sp.A", 3, "load")],
        id="npb_improvement",
    ),
    # Section 6.2's blocktime waits: the odd thread's partners share a
    # core, so it spins past the 200 ms blocktime and sleeps
    pytest.param(
        "npb_improvement",
        dict(benches=["ft.B"], core_counts=[2], balancers=["speed", "load"],
             n_threads=3, total_compute_us=450_000, wait="omp-default", flavor="omp"),
        [("ft.B", 2, "speed"), ("ft.B", 2, "load")],
        id="npb_improvement-omp-default",
    ),
    pytest.param(
        "cpu_hog_series",
        dict(core_counts=[4, 2], n_threads=4, total_compute_us=20_000),
        [4, 2],
        id="cpu_hog_series",
    ),
    pytest.param(
        "make_share_series",
        dict(benches=["sp.A", "cg.B"], balancers=["speed"], j=1, n_threads=4,
             total_compute_us=20_000),
        [("sp.A", "speed"), ("cg.B", "speed")],
        id="make_share_series",
    ),
]


class TestScenarioGrids:
    """Every figure function resolves its whole grid as one spec batch on
    the fastest engine, and each run equals the heap engine's in-process
    run of the same spec."""

    @pytest.mark.parametrize("name,kwargs,keys", TINY_GRIDS)
    def test_one_batch_in_grid_order(self, monkeypatch, name, kwargs, keys):
        batches = []
        real = parallel.map_specs

        def counting(specs, **kw):
            batches.append(list(specs))
            return real(batches[-1], **kw)

        monkeypatch.setattr(parallel, "map_specs", counting)
        out = getattr(scenarios, name)(seeds=range(2), **kwargs)

        assert list(out) == keys
        assert len(batches) == 1
        (specs,) = batches
        engine = "native" if backend_available("native") else "heap"
        assert {spec.engine for spec in specs} == {engine}
        runs = [run for rr in out.values() for run in rr.runs]
        assert len(specs) == len(runs) == 4
        assert [run.seed for run in runs] == [0, 1, 0, 1]
        for spec, run in zip(specs, runs):
            heap = parallel.run_spec(dataclasses.replace(spec, engine="heap"))
            assert run_digest(run) == run_digest(heap)


def _traced_digest(app, corunners=(), cores=4):
    result, system = run_app(
        presets.tigerton, app, balancer="speed", cores=cores, seed=1,
        corunner_factories=corunners, trace=True, return_system=True,
    )
    return run_digest(result, system.trace, system.engine)


class TestSpecsMatchTheClosuresTheyReplace:
    @pytest.mark.parametrize("wait,policy", [
        ("omp-default", WaitPolicy.omp_default()),
        ("spin", WaitPolicy.omp_infinite()),
    ], ids=["omp-default", "spin"])
    def test_omp_wait_spec(self, wait, policy):
        spec = AppSpec(bench="bt.A", n_threads=6, wait=wait, flavor="omp",
                       total_compute_us=100_000)

        def closure(system):
            return make_nas_app(system, "bt.A", n_threads=6, wait_policy=policy,
                                flavor="omp", total_compute_us=100_000)

        assert _traced_digest(spec) == _traced_digest(closure)

    def test_make_job_length(self):
        app = AppSpec(bench="cg.B", n_threads=16, total_compute_us=40_000)
        spec = scenarios.CorunnerSpec("make-j", j=16, jobs=64, mean_job_us=120_000)
        closure = lambda s: MakeWorkload(s, j=16, jobs=64, mean_job_us=120_000)  # noqa: E731
        digest = _traced_digest(app, (spec,), cores=16)
        assert digest == _traced_digest(app, (closure,), cores=16)
        # the job length reaches the run: the default 150 ms differs
        default = scenarios.CorunnerSpec("make-j", j=16, jobs=64)
        assert digest != _traced_digest(app, (default,), cores=16)


class TestWaitPolicies:
    def test_registry_contents(self):
        from repro.apps.workloads import WAIT_POLICIES

        assert WAIT_POLICIES == {
            "yield": WaitPolicy.upc_default(),
            "sleep": WaitPolicy.upc_sleep(),
            "spin": WaitPolicy.omp_infinite(),
            "omp-default": WaitPolicy.omp_default(),
        }


class TestCorunnerSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown co-runner kind"):
            scenarios.CorunnerSpec("dd-bench")

    def test_specs_are_storable(self):
        from repro.store import canonical_value, digest_of

        a = scenarios.CorunnerSpec("cpu-hog", core=0)
        b = scenarios.CorunnerSpec("make-j", j=4, jobs=8)
        assert digest_of(canonical_value(a)) != digest_of(canonical_value(b))


class TestScenarioStoreParity:
    """Cache-hit results must be byte-identical to cache-miss results,
    one representative configuration per scenario family."""

    def _parity(self, tmp_path, name):
        from repro.service import JobService
        from repro.store import ResultStore

        smoke = scenarios.scenario_smokes()[name]
        fresh, _ = smoke.run(seed=0)

        store = ResultStore(tmp_path / "s")
        miss = JobService(store)
        (stored,) = miss.submit([smoke.spec(seed=0)])
        assert miss.executed == 1
        hit = JobService(store)
        (cached,) = hit.submit([smoke.spec(seed=0)])
        assert hit.executed == 0

        assert run_digest(stored) == run_digest(fresh)
        assert run_digest(cached) == run_digest(fresh)

    def test_parity_ep_speedup(self, tmp_path):
        self._parity(tmp_path, "ep-speedup")

    def test_parity_balance_interval(self, tmp_path):
        self._parity(tmp_path, "balance-interval")

    def test_parity_npb(self, tmp_path):
        self._parity(tmp_path, "npb-speed")

    def test_parity_cpu_hog(self, tmp_path):
        self._parity(tmp_path, "cpu-hog")

    def test_parity_make_share(self, tmp_path):
        self._parity(tmp_path, "make-share")

    def test_scenario_store_path_end_to_end(self, tmp_path, monkeypatch):
        """A scenario function with store= submits its grid as one
        batch, executes zero runs the second time and returns identical
        aggregates."""
        from repro.service import JobService
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "s")
        kwargs = dict(core_counts=[2, 3], n_threads=4, seeds=range(2),
                      total_compute_us=50_000)
        svc = JobService(store)
        batches = []
        real_submit = svc.submit

        def counting(specs, **kw):
            batches.append(list(specs))
            return real_submit(batches[-1], **kw)

        monkeypatch.setattr(svc, "submit", counting)
        first = scenarios.ep_speedup_series(store=svc, **kwargs)
        assert [len(batch) for batch in batches] == [4]
        assert svc.executed == 4
        svc2 = JobService(store)
        second = scenarios.ep_speedup_series(store=svc2, **kwargs)
        assert svc2.executed == 0
        assert first[2].mean_speedup == second[2].mean_speedup
        nostore = scenarios.ep_speedup_series(**kwargs)
        assert nostore[2].mean_speedup == first[2].mean_speedup

    def test_omp_wait_policies_store_round_trip(self, tmp_path):
        """The OpenMP blocktime wait is an AppSpec value like the plain
        ones: it stores, and the cached grid equals the fresh one."""
        from repro.service import JobService
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "s")
        kwargs = dict(core_counts=[2], n_threads=3, seeds=range(1),
                      total_compute_us=30_000, wait="omp-default")
        fresh = run_digest(scenarios.ep_speedup_series(**kwargs)[2].runs[0])
        miss, hit = JobService(store), JobService(store)
        stored = scenarios.ep_speedup_series(store=miss, **kwargs)
        cached = scenarios.ep_speedup_series(store=hit, **kwargs)
        assert (miss.executed, hit.executed) == (1, 0)
        assert run_digest(stored[2].runs[0]) == fresh
        assert run_digest(cached[2].runs[0]) == fresh
