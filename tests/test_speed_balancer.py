"""Unit tests for the speed balancer (the paper's contribution)."""

import pytest

from repro.apps.barriers import WaitPolicy
from repro.apps.spmd import SpmdApp
from repro.balance.linux import LinuxLoadBalancer
from repro.core.speed_balancer import SpeedBalancer, SpeedBalancerConfig
from repro.sched.task import WaitMode
from repro.system import System
from repro.topology import presets
from repro.topology.machine import DomainLevel


def build(
    machine=None,
    n_threads=4,
    cores=None,
    work_us=2_000_000,
    seed=0,
    config=None,
    mode=WaitMode.YIELD,
    trace=False,
):
    system = System(machine or presets.uniform(4), seed=seed, trace=trace)
    system.set_balancer(LinuxLoadBalancer())
    app = SpmdApp(
        system,
        "app",
        n_threads,
        work_us=work_us,
        iterations=1,
        wait_policy=WaitPolicy(mode=mode),
        barrier_every_iteration=False,
    )
    sb = SpeedBalancer(app, cores=cores, config=config)
    system.add_user_balancer(sb)
    app.spawn(cores=cores)
    return system, app, sb


class TestInitialPinning:
    def test_round_robin_distribution(self):
        system, app, sb = build(n_threads=8, cores=[0, 1, 2, 3])
        system.run(until=20_000)
        placement = sorted(t.cur_core for t in app.tasks)
        assert placement == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_threads_pinned_after_startup(self):
        system, app, sb = build(n_threads=4)
        system.run(until=20_000)
        for t in app.tasks:
            assert t.allowed_cores is not None and len(t.allowed_cores) == 1

    def test_pinning_disabled_config(self):
        cfg = SpeedBalancerConfig(initial_pinning=False)
        system, app, sb = build(n_threads=4, config=cfg)
        system.run(until=20_000)
        assert any(t.allowed_cores is None for t in app.tasks)

    def test_respects_requested_core_subset(self):
        system, app, sb = build(n_threads=6, cores=[1, 2])
        system.run(until=20_000)
        assert {t.cur_core for t in app.tasks} <= {1, 2}


class TestPullBehaviour:
    def test_pulls_from_slow_to_fast(self):
        """3 threads, 2 cores: the canonical Section 3 scenario."""
        system, app, sb = build(
            machine=presets.uniform(2), n_threads=3, cores=[0, 1],
            work_us=3_000_000,
        )
        system.run_until_done([app])
        assert sb.stats_pulls >= 2
        # rotation equalizes progress: every thread within 25% of the max
        comps = sorted(t.compute_us for t in app.tasks)
        assert comps[0] >= 0.7 * comps[-1]

    def test_no_pulls_when_balanced(self):
        system, app, sb = build(n_threads=4, work_us=1_500_000)
        system.run_until_done([app])
        assert sb.stats_pulls == 0

    def test_post_migration_block_limits_rate(self):
        system, app, sb = build(
            machine=presets.uniform(2), n_threads=3, cores=[0, 1],
            work_us=2_000_000,
        )
        system.run_until_done([app])
        elapsed = app.elapsed_us
        intervals = elapsed / 100_000
        # with a two-interval block per core pair, pulls are bounded
        assert sb.stats_pulls <= intervals

    def test_wakeups_continue_until_app_done(self):
        system, app, sb = build(n_threads=4, work_us=500_000)
        system.run_until_done([app])
        assert sb.stats_wakeups >= 4  # one per core at least
        wakes_at_done = sb.stats_wakeups
        system.run(until=system.engine.now + 500_000)
        # balancer threads exit once the application is finished
        assert sb.stats_wakeups <= wakes_at_done + len(system.cores)


class TestThreshold:
    def test_high_threshold_pulls_eagerly(self):
        cfg_eager = SpeedBalancerConfig(speed_threshold=0.99, noise_sigma=0.0)
        system, app, sb = build(
            machine=presets.uniform(2), n_threads=3, cores=[0, 1],
            work_us=2_000_000, config=cfg_eager,
        )
        system.run_until_done([app])
        assert sb.stats_pulls >= 2

    def test_zero_threshold_never_pulls(self):
        cfg_never = SpeedBalancerConfig(speed_threshold=0.0)
        system, app, sb = build(
            machine=presets.uniform(2), n_threads=3, cores=[0, 1],
            work_us=1_000_000, config=cfg_never,
        )
        system.run_until_done([app])
        assert sb.stats_pulls == 0


class TestNumaBlocking:
    def test_numa_migrations_blocked_by_default(self):
        system, app, sb = build(
            machine=presets.barcelona(), n_threads=6, cores=[0, 1, 4, 5],
            work_us=2_000_000, trace=True,
        )
        system.run_until_done([app])
        for rec in system.trace.migrations:
            if rec.reason == "speed.pull":
                level = system.machine.domain_level_between(rec.src, rec.dst)
                assert level != DomainLevel.NUMA

    def test_numa_migrations_allowed_when_enabled(self):
        enabled = dict.fromkeys(DomainLevel, True)
        cfg = SpeedBalancerConfig(level_enabled=enabled)
        system, app, sb = build(
            machine=presets.barcelona(), n_threads=6, cores=[0, 1, 4, 5],
            work_us=2_000_000, config=cfg, trace=True,
        )
        system.run_until_done([app])
        numa_pulls = [
            rec
            for rec in system.trace.migrations
            if rec.reason == "speed.pull"
            and system.machine.domain_level_between(rec.src, rec.dst)
            == DomainLevel.NUMA
        ]
        assert numa_pulls  # imbalance sits across nodes: 2,2 vs 1,1


class TestVictimPolicies:
    def _migration_spread(self, policy, seed=0):
        cfg = SpeedBalancerConfig(victim_policy=policy)
        system, app, sb = build(
            machine=presets.uniform(2), n_threads=3, cores=[0, 1],
            work_us=4_000_000, config=cfg, seed=seed,
        )
        system.run_until_done([app])
        return sorted(t.migrations for t in app.tasks), sb

    def test_least_migrated_spreads_migrations(self):
        migs, sb = self._migration_spread("least-migrated")
        if sb.stats_pulls >= 3:
            # no single hot-potato thread absorbs everything
            assert migs[0] >= 1 or migs[-1] <= sb.stats_pulls - 2

    def test_most_migrated_creates_hot_potato(self):
        migs, sb = self._migration_spread("most-migrated")
        if sb.stats_pulls >= 3:
            assert migs[-1] >= sb.stats_pulls  # one thread takes all pulls

    def test_unknown_policy_raises(self):
        cfg = SpeedBalancerConfig(victim_policy="bogus")
        system, app, sb = build(
            machine=presets.uniform(2), n_threads=3, cores=[0, 1],
            work_us=1_000_000, config=cfg,
        )
        with pytest.raises(ValueError):
            system.run_until_done([app])


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        outcomes = []
        for _ in range(2):
            system, app, sb = build(
                machine=presets.uniform(2), n_threads=3, cores=[0, 1],
                work_us=1_000_000, seed=42,
            )
            system.run_until_done([app])
            outcomes.append((app.elapsed_us, sb.stats_pulls, app.migrations()))
        assert outcomes[0] == outcomes[1]

    def test_different_seeds_jitter_differs(self):
        a = build(machine=presets.uniform(2), n_threads=3, cores=[0, 1],
                  work_us=1_000_000, seed=1, trace=True)
        b = build(machine=presets.uniform(2), n_threads=3, cores=[0, 1],
                  work_us=1_000_000, seed=2, trace=True)
        a[0].run_until_done([a[1]])
        b[0].run_until_done([b[1]])
        # jitter shifts wake times, so migration timings differ
        pulls_a = [r.time for r in a[0].trace.migrations if r.reason == "speed.pull"]
        pulls_b = [r.time for r in b[0].trace.migrations if r.reason == "speed.pull"]
        assert pulls_a != pulls_b
