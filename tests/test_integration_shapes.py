"""Integration tests: the paper's qualitative results must reproduce.

Each test encodes a *shape* claim from the evaluation (Section 6): who
wins, roughly by how much, and under which synchronization behaviour.
Durations are scaled (seconds of simulated time instead of tens), which
preserves every ratio that matters; see EXPERIMENTS.md.
"""

import pytest

from repro.apps.barriers import WaitPolicy
from repro.apps.multiprogram import CpuHog
from repro.apps.workloads import ep_app, make_nas_app
from repro.harness.experiment import repeat_run, run_app
from repro.sched.task import WaitMode
from repro.topology import presets

YIELD = WaitPolicy(mode=WaitMode.YIELD)
SLEEP = WaitPolicy(mode=WaitMode.SLEEP)


def ep_factory(wait=YIELD, n_threads=16, total=4_000_000):
    def factory(system):
        return ep_app(
            system, n_threads=n_threads, wait_policy=wait, total_compute_us=total
        )

    return factory


class TestFigure3Shapes:
    """EP, 16 threads, variable core counts (Tigerton)."""

    def test_speed_beats_load_on_nondivisible_cores(self):
        """The paper's headline: SPEED near-optimal where LOAD is stuck
        at the slowest thread (16 threads on 12 cores: 8.0 vs ~11)."""
        speed = run_app(presets.tigerton, ep_factory(), "speed", cores=12, seed=1)
        load = run_app(presets.tigerton, ep_factory(), "load", cores=12, seed=1)
        assert speed.speedup > 10.0
        assert load.speedup < 9.0
        assert speed.speedup > 1.25 * load.speedup

    def test_pinned_staircase(self):
        """PINNED speedup is 16/ceil(16/N): optimal iff 16 mod N == 0."""
        for cores, expected in [(4, 4.0), (8, 8.0), (12, 8.0), (16, 16.0)]:
            res = run_app(
                presets.tigerton, ep_factory(wait=SLEEP), "pinned",
                cores=cores, seed=0,
            )
            assert res.speedup == pytest.approx(expected, rel=0.05), cores

    def test_speed_with_yield_matches_speed_with_sleep(self):
        """'with speed balancing, identical levels of performance can be
        achieved by calling only sched_yield'."""
        y = run_app(presets.tigerton, ep_factory(wait=YIELD), "speed", cores=12, seed=1)
        s = run_app(presets.tigerton, ep_factory(wait=SLEEP), "speed", cores=12, seed=1)
        assert y.elapsed_us == pytest.approx(s.elapsed_us, rel=0.10)

    def test_load_sleep_beats_load_yield(self):
        """'the Linux load balancer is able to provide better
        scalability' when the runtime sleeps instead of yielding."""
        y = run_app(presets.tigerton, ep_factory(wait=YIELD), "load", cores=12, seed=1)
        s = run_app(presets.tigerton, ep_factory(wait=SLEEP), "load", cores=12, seed=1)
        assert s.speedup > 1.15 * y.speedup

    def test_ule_default_matches_pinned(self):
        """'Performance with the ULE FreeBSD scheduler is very similar
        to the pinned (statically balanced) case.'"""
        ule = run_app(presets.tigerton, ep_factory(), "ule", cores=12, seed=1)
        pin = run_app(presets.tigerton, ep_factory(), "pinned", cores=12, seed=1)
        assert ule.speedup == pytest.approx(pin.speedup, rel=0.15)

    def test_dwrr_between_load_and_speed(self):
        """DWRR fixes the 3-on-2-style imbalance (fairness across
        rounds) but migrates far more than SPEED does; at 12 cores its
        throughput tracks SPEED closely (paper: comparable up to 8
        cores, then below)."""
        dwrr = run_app(presets.tigerton, ep_factory(), "dwrr", cores=12, seed=1)
        load = run_app(presets.tigerton, ep_factory(), "load", cores=12, seed=1)
        speed = run_app(presets.tigerton, ep_factory(), "speed", cores=12, seed=1)
        assert dwrr.speedup > 1.2 * load.speedup
        assert dwrr.speedup < speed.speedup * 1.05
        assert dwrr.migrations > 2 * speed.migrations

    def test_everyone_scales_at_16_on_16(self):
        """'speedup at 16 on 16 was always close to 16' (except DWRR)."""
        for mode in ("speed", "load", "pinned", "ule"):
            res = run_app(
                presets.tigerton, ep_factory(wait=SLEEP), mode, cores=16, seed=0
            )
            assert res.speedup > 14.0, mode

    def test_dwrr_not_above_speed_at_16_on_16(self):
        """Paper measured DWRR at only ~12 of 16 here.  Our model
        reproduces DWRR's scheduling *decisions* (which lose nothing on
        this workload) but not the prototype kernel's implementation
        overheads -- the magnitude deviation is recorded in
        EXPERIMENTS.md.  Directionally DWRR must not beat SPEED."""
        res = run_app(presets.tigerton, ep_factory(wait=SLEEP), "dwrr", cores=16, seed=0)
        speed = run_app(
            presets.tigerton, ep_factory(wait=SLEEP), "speed", cores=16, seed=0
        )
        assert res.speedup <= speed.speedup + 0.05


class TestThreeOnTwo:
    """Section 3's motivating example: 3 threads, 2 cores."""

    def test_load_runs_at_half_speed(self):
        res = run_app(
            presets.tigerton, ep_factory(n_threads=3, total=2_000_000),
            "load", cores=2, seed=0,
        )
        # total work 6s on 2 cores: ideal 3s; LOAD: one thread at 1/2 -> 4s
        assert res.speedup == pytest.approx(1.5, rel=0.05)

    def test_speed_approaches_two_thirds(self):
        res = run_app(
            presets.tigerton, ep_factory(n_threads=3, total=2_000_000),
            "speed", cores=2, seed=0,
        )
        # rotation: every thread ~2/3 speed -> app speedup -> ~1.9
        assert res.speedup > 1.75


class TestVariability:
    """Table 3: LOAD erratic (up to 67%+), SPEED under ~5%."""

    def test_speed_variation_below_load_variation(self):
        factory = ep_factory(total=2_000_000)
        speed = repeat_run(
            presets.tigerton, factory, "speed", cores=10, seeds=range(6)
        )
        load = repeat_run(
            presets.tigerton, factory, "load", cores=10, seeds=range(6)
        )
        assert speed.variation_pct < 10.0
        assert speed.variation_pct <= load.variation_pct
        assert speed.mean_time_us < load.mean_time_us


class TestFigure5CpuHog:
    """EP sharing with a cpu-hog pinned to core 0."""

    def _run(self, mode, wait=SLEEP, n_threads=16, seed=0):
        return run_app(
            presets.tigerton,
            ep_factory(wait=wait, n_threads=n_threads),
            mode,
            cores=16,
            seed=seed,
            corunner_factories=[lambda s: CpuHog(s, core=0)],
        )

    def test_one_per_core_halves(self):
        """'the whole parallel application is slowed by 50%'."""
        res = run_app(
            presets.tigerton,
            ep_factory(wait=SLEEP, n_threads=16),
            "pinned",
            cores=16,
            seed=0,
            corunner_factories=[lambda s: CpuHog(s, core=0)],
        )
        assert res.speedup == pytest.approx(8.0, rel=0.1)

    def test_speed_spreads_the_hog_pain(self):
        """SPEED rotates every thread through the contended core.

        The steady state alternates between "every core one thread,
        core 0 shared with the hog" (15.5 effective cores) and "hog
        alone on core 0, one thread pair elsewhere" (15.0), so the
        achievable band is ~12-14 -- far above One-per-core's 8."""
        runs = [self._run("speed", seed=s) for s in range(3)]
        mean = sum(r.speedup for r in runs) / len(runs)
        assert mean > 11.5

    def test_load_recovers_via_sleepers(self):
        """'performance with LOAD is good because LOAD can balance
        applications that sleep.'"""
        res = self._run("load", wait=SLEEP)
        assert res.speedup > 10.0

    def test_speed_beats_one_per_core_with_hog(self):
        speed = self._run("speed")
        one_per_core = run_app(
            presets.tigerton,
            ep_factory(wait=SLEEP, n_threads=16),
            "pinned",
            cores=16,
            seed=0,
            corunner_factories=[lambda s: CpuHog(s, core=0)],
        )
        assert speed.speedup > 1.4 * one_per_core.speedup


class TestNuma:
    """Section 6.4: Barcelona behaviour."""

    def test_speed_beats_load_on_barcelona(self):
        speed = run_app(presets.barcelona, ep_factory(), "speed", cores=12, seed=1)
        load = run_app(presets.barcelona, ep_factory(), "load", cores=12, seed=1)
        assert speed.speedup > load.speedup

    def test_speed_numa_blocking_keeps_memory_local(self):
        res, system = run_app(
            presets.barcelona, ep_factory(), "speed", cores=12, seed=1,
            return_system=True, trace=True,
        )
        from repro.topology.machine import DomainLevel

        for rec in system.trace.migrations:
            if rec.reason == "speed.pull":
                assert (
                    system.machine.domain_level_between(rec.src, rec.dst)
                    != DomainLevel.NUMA
                )


class TestAsymmetricCores:
    """Section 3, condition 2: cores at different clock speeds."""

    def test_speed_balances_turbo_boosted_machine(self):
        """Oversubscribed threads on a Turbo-Boost-style machine: speed
        balancing (with the paper's clock weighting extension) rotates
        threads so nobody is stuck sharing a slow core."""
        factors = [1.3, 1.3, 0.85, 0.85, 1.0, 1.0, 1.0, 1.0]

        def factory(system):
            return ep_app(system, n_threads=12, wait_policy=YIELD,
                          total_compute_us=2_000_000)

        speed = run_app(presets.asymmetric(factors), factory, "speed", seed=1)
        pinned = run_app(presets.asymmetric(factors), factory, "pinned", seed=1)
        load = run_app(presets.asymmetric(factors), factory, "load", seed=1)
        assert speed.elapsed_us < 0.8 * pinned.elapsed_us
        assert speed.elapsed_us < 0.8 * load.elapsed_us

    def test_fast_cores_attract_more_work(self):
        machine = presets.asymmetric([2.0, 1.0])

        def factory(system):
            return ep_app(system, n_threads=3, wait_policy=YIELD,
                          total_compute_us=2_000_000)

        res, system = run_app(machine, factory, "speed", seed=0, return_system=True)
        # the 2x core retires more of the total compute
        assert system.cores[0].stats.busy_us >= system.cores[1].stats.busy_us * 0.8
        ideal = 3 * 2_000_000 / 3.0  # total work / total capacity
        assert res.elapsed_us < 1.35 * ideal


class TestNasWorkloads:
    def test_speed_close_to_load_fine_grained(self):
        """sp.A syncs every 2ms -- far below the Section 4 profitability
        threshold ((T+1)*S > 2*B needs S > 100ms here), so the paper
        predicts "the same performance as the Linux default".  SPEED's
        speculative pulls cost it a few percent of migration debt; it
        must stay within ~15% of LOAD."""

        def factory(system):
            return make_nas_app(system, "sp.A", wait_policy=YIELD,
                                total_compute_us=400_000)

        speed = repeat_run(presets.tigerton, factory, "speed", cores=12,
                           seeds=range(3))
        load = repeat_run(presets.tigerton, factory, "load", cores=12,
                          seeds=range(3))
        assert speed.mean_time_us < 1.15 * load.mean_time_us

    def test_memory_bound_scales_worse_than_cpu_bound(self):
        """Table 2: ft.B reaches ~5 of 16 on Tigerton, EP ~16."""

        def ft(system):
            return make_nas_app(system, "ft.B", wait_policy=SLEEP,
                                total_compute_us=400_000)

        def ep(system):
            return ep_app(system, n_threads=16, wait_policy=SLEEP,
                          total_compute_us=400_000)

        ft_res = run_app(presets.tigerton, ft, "pinned", cores=16, seed=0)
        ep_res = run_app(presets.tigerton, ep, "pinned", cores=16, seed=0)
        assert ep_res.speedup > 14
        assert ft_res.speedup < 0.6 * ep_res.speedup
