"""Unit tests for the NAS workload catalog and co-runners."""

import pytest

from repro.apps.multiprogram import CpuHog, MakeWorkload
from repro.apps.workloads import (
    FULL_CATALOG,
    GB,
    NAS_CATALOG,
    NAS_EXTENDED_CATALOG,
    ep_app,
    make_nas_app,
)
from repro.balance.linux import LinuxLoadBalancer
from repro.balance.pinned import PinnedBalancer
from repro.sched.task import TaskState
from repro.system import System
from repro.topology import presets


class TestCatalog:
    def test_table2_members_present(self):
        for name in ("bt.A", "cg.B", "ft.B", "is.C", "sp.A", "ep.C"):
            assert name in NAS_CATALOG

    def test_ft_b_matches_table2(self):
        ft = NAS_CATALOG["ft.B"]
        assert ft.rss_per_core_gb == 5.6
        assert ft.inter_barrier_upc_us == 73_000
        assert ft.inter_barrier_omp_us == 206_000
        assert ft.paper_speedup16_tigerton == 5.3
        assert ft.paper_speedup16_barcelona == 10.5

    def test_cg_b_barrier_every_4ms(self):
        # "cg.B performs barrier synchronization every 4 ms"
        assert NAS_CATALOG["cg.B"].inter_barrier_upc_us == 4_000

    def test_ep_has_no_barriers(self):
        assert NAS_CATALOG["ep.C"].inter_barrier_upc_us is None

    def test_memory_intensity_ordering(self):
        # bandwidth-bound codes above compute-bound ones
        assert NAS_CATALOG["ft.B"].mem_intensity > NAS_CATALOG["sp.A"].mem_intensity
        assert NAS_CATALOG["ep.C"].mem_intensity == 0.0

    def test_footprint_bytes(self):
        assert NAS_CATALOG["ft.B"].footprint_bytes() == int(5.6 * GB)

    def test_flavor_selection(self):
        ft = NAS_CATALOG["ft.B"]
        assert ft.inter_barrier_us("upc") == 73_000
        assert ft.inter_barrier_us("omp") == 206_000


class TestMakeNasApp:
    def setup_method(self):
        self.system = System(presets.tigerton(), seed=0)
        self.system.set_balancer(PinnedBalancer())

    def test_iterations_follow_granularity(self):
        app = make_nas_app(self.system, "cg.B", total_compute_us=100_000)
        assert app.iterations == 25  # 100ms / 4ms
        assert app.work_for(0, 0) == 4_000

    def test_ep_is_single_segment(self):
        app = make_nas_app(self.system, "ep.C", total_compute_us=50_000)
        assert app.iterations == 1
        assert not app.barrier_every_iteration
        assert app.total_work_us() == 16 * 50_000

    def test_threads_inherit_footprint_and_intensity(self):
        app = make_nas_app(self.system, "ft.B")
        t = app.tasks[0]
        assert t.footprint_bytes == NAS_CATALOG["ft.B"].footprint_bytes()
        assert t.mem_intensity == NAS_CATALOG["ft.B"].mem_intensity

    def test_accepts_entry_object(self):
        app = make_nas_app(self.system, NAS_CATALOG["sp.A"])
        assert app.name == "sp.A"

    def test_unknown_bench_raises(self):
        with pytest.raises(KeyError):
            make_nas_app(self.system, "lu.Z")

    def test_runs_to_completion(self):
        app = make_nas_app(self.system, "sp.A", n_threads=4, total_compute_us=20_000)
        app.spawn(cores=[0, 1, 2, 3])
        self.system.run_until_done([app])
        assert app.done


class TestEpApp:
    def test_modified_ep_has_periodic_barriers(self):
        system = System(presets.uniform(2), seed=0)
        system.set_balancer(PinnedBalancer())
        app = ep_app(system, n_threads=2, total_compute_us=10_000, barrier_period_us=1_000)
        assert app.iterations == 10
        assert app.barrier_every_iteration
        app.spawn()
        system.run_until_done([app])
        assert app.barrier.generation == 10


class TestCpuHog:
    def test_hog_monopolizes_half_the_core(self):
        system = System(presets.uniform(2), seed=0)
        system.set_balancer(PinnedBalancer())
        hog = CpuHog(system, core=0)
        hog.spawn()
        app = ep_app(system, n_threads=2, total_compute_us=50_000)
        app.spawn()
        system.run_until_done([app], limit_us=10_000_000)
        # the thread sharing core 0 with the hog runs at half speed
        thread_on_0 = next(t for t in app.tasks if 0 in (t.last_core, t.cur_core))
        assert thread_on_0.finished_at >= 95_000

    def test_hog_is_pinned_and_immortal(self):
        system = System(presets.uniform(2), seed=0)
        system.set_balancer(LinuxLoadBalancer())
        hog = CpuHog(system, core=1)
        hog.spawn()
        system.run(until=500_000)
        assert hog.task.cur_core == 1
        assert hog.task.state in (TaskState.RUNNING, TaskState.RUNNABLE)
        live = hog.task.exec_time_at(system.engine.now, system.cores[1])
        assert live == pytest.approx(500_000, rel=0.01)


class TestMakeWorkload:
    def test_all_jobs_complete(self):
        system = System(presets.uniform(4), seed=3)
        system.set_balancer(LinuxLoadBalancer())
        make = MakeWorkload(system, j=4, jobs=12, mean_job_us=20_000)
        make.spawn()
        system.run(until=5_000_000)
        assert make.done
        assert len(make.tasks) == 12

    def test_waves_respect_j(self):
        system = System(presets.uniform(4), seed=3)
        system.set_balancer(LinuxLoadBalancer())
        make = MakeWorkload(system, j=4, jobs=12, mean_job_us=20_000)
        make.spawn()
        system.run(until=1_000)
        # only the first wave exists so far
        assert len(make.tasks) == 4

    def test_jobs_alternate_compute_and_io(self):
        system = System(presets.uniform(2), seed=5)
        system.set_balancer(LinuxLoadBalancer())
        make = MakeWorkload(system, j=1, jobs=1, mean_job_us=50_000, io_fraction=0.4)
        make.spawn()
        system.run(until=5_000_000)
        job = make.tasks[0]
        assert job.finished_at is not None
        # wall time exceeds exec time because of the I/O sleeps
        assert job.finished_at > job.exec_us * 1.2

    def test_durations_vary_across_seeds(self):
        totals = []
        for seed in (1, 2, 3):
            system = System(presets.uniform(2), seed=seed)
            system.set_balancer(LinuxLoadBalancer())
            make = MakeWorkload(system, j=2, jobs=4, mean_job_us=30_000)
            make.spawn()
            system.run(until=5_000_000)
            totals.append(sum(t.exec_us for t in make.tasks))
        assert len(set(totals)) > 1


class TestExtendedCatalog:
    def test_union_view(self):
        assert set(FULL_CATALOG) >= set(NAS_EXTENDED_CATALOG)
        assert "mg.B" in FULL_CATALOG and "lu.A" in FULL_CATALOG

    def test_extended_entries_runnable(self, tigerton_system):
        app = make_nas_app(tigerton_system, "lu.A", n_threads=4,
                           total_compute_us=20_000)
        app.spawn(cores=[0, 1, 2, 3])
        tigerton_system.run_until_done([app])
        assert app.done

    def test_extended_marked_distinct_from_paper_table(self):
        assert not (set(NAS_CATALOG) & set(NAS_EXTENDED_CATALOG))
