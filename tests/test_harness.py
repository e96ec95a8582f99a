"""Unit tests for the experiment harness and reporting."""

import pytest

from repro.apps.workloads import ep_app
from repro.harness import report
from repro.harness.experiment import (
    BALANCER_MODES,
    make_kernel_balancer,
    repeat_run,
    run_app,
)
from repro.topology import presets


def ep_factory(system):
    return ep_app(system, n_threads=8, total_compute_us=200_000)


class TestMakeKernelBalancer:
    def test_all_modes_resolve(self):
        for mode in BALANCER_MODES:
            assert make_kernel_balancer(mode) is not None

    def test_speed_mode_uses_linux_underneath(self):
        from repro.balance.linux import LinuxLoadBalancer

        assert isinstance(make_kernel_balancer("speed"), LinuxLoadBalancer)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown balancer"):
            make_kernel_balancer("wfq")


class TestRunApp:
    def test_returns_measurements(self):
        res = run_app(presets.uniform(4), ep_factory, balancer="pinned", cores=4)
        assert res.app_name == "ep.C"
        assert res.n_cores == 4 and res.n_threads == 8
        assert res.elapsed_us > 0
        assert res.total_work_us == 8 * 200_000
        assert len(res.thread_exec_us) == 8

    def test_machine_factory_accepted(self):
        res = run_app(presets.tigerton, ep_factory, balancer="pinned", cores=4)
        assert res.elapsed_us > 0

    def test_cores_as_int(self):
        res = run_app(presets.uniform(8), ep_factory, balancer="pinned", cores=2)
        assert res.n_cores == 2

    def test_cores_none_uses_whole_machine(self):
        res = run_app(presets.uniform(8), ep_factory, balancer="pinned")
        assert res.n_cores == 8

    def test_return_system(self):
        res, system = run_app(
            presets.uniform(4), ep_factory, balancer="load", cores=4,
            return_system=True,
        )
        assert system.engine.now >= res.elapsed_us

    def test_speed_mode_attaches_user_balancer(self):
        res, system = run_app(
            presets.uniform(4), ep_factory, balancer="speed", cores=4,
            return_system=True,
        )
        assert len(system.user_balancers) == 1

    def test_all_modes_run_ep(self):
        for mode in BALANCER_MODES:
            res = run_app(presets.uniform(4), ep_factory, balancer=mode, cores=4)
            assert res.speedup > 0, mode

    def test_deterministic_per_seed(self):
        a = run_app(presets.tigerton, ep_factory, balancer="speed", cores=6, seed=3)
        b = run_app(presets.tigerton, ep_factory, balancer="speed", cores=6, seed=3)
        assert a.elapsed_us == b.elapsed_us
        assert a.migrations == b.migrations

    def test_seeds_change_load_outcomes(self):
        times = {
            run_app(
                presets.tigerton, ep_factory, balancer="load", cores=6, seed=s
            ).elapsed_us
            for s in range(6)
        }
        assert len(times) > 1


class TestRepeatRun:
    def test_aggregates_over_seeds(self):
        rr = repeat_run(
            presets.uniform(4), ep_factory, balancer="pinned", cores=4,
            seeds=range(3),
        )
        assert len(rr.runs) == 3
        assert rr.mean_time_us > 0

    def test_seed_recorded(self):
        rr = repeat_run(
            presets.uniform(4), ep_factory, balancer="pinned", cores=4,
            seeds=[7, 9],
        )
        assert [r.seed for r in rr.runs] == [7, 9]


class TestReport:
    def test_table_alignment(self):
        text = report.table(["a", "bb"], [[1, 2.5], [10, 3.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.50" in text and "3.25" in text

    def test_series(self):
        text = report.series("x", [1, 2], {"y1": [0.1, 0.2], "y2": [1.0, 2.0]})
        assert "y1" in text and "y2" in text
        assert "0.10" in text

    def test_kv_block(self):
        text = report.kv_block("Summary", {"speedup": 1.5, "runs": 10})
        assert "Summary" in text
        assert "speedup" in text and "1.50" in text


class TestCoreSubsetValidation:
    def test_out_of_range_subset_rejected(self):
        with pytest.raises(ValueError, match="core subset"):
            run_app(presets.uniform(4), ep_factory, balancer="pinned", cores=8)

    def test_explicit_bad_core_rejected(self):
        with pytest.raises(ValueError, match="core subset"):
            run_app(
                presets.uniform(4), ep_factory, balancer="pinned",
                cores=[0, 99],
            )

    @pytest.mark.parametrize("cores", [[0, "1"], [[0]], [True, 2], True])
    def test_non_int_ids_rejected(self, cores):
        with pytest.raises(ValueError, match="not a core"):
            run_app(presets.uniform(4), ep_factory, balancer="pinned", cores=cores)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_app(presets.uniform(4), ep_factory, balancer="pinned", cores=[])

    def test_duplicate_cores_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate core ids \[1\]"):
            run_app(
                presets.uniform(4), ep_factory, balancer="pinned",
                cores=[0, 1, 1, 2],
            )

    def test_duplicates_do_not_inflate_n_cores(self):
        # the old behaviour kept duplicates: n_cores silently became 4
        with pytest.raises(ValueError, match="duplicate"):
            run_app(
                presets.uniform(4), ep_factory, balancer="pinned",
                cores=(2, 2, 3, 3),
            )
