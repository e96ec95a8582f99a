"""Dynamic frequency scaling (Turbo Boost / thermal throttling).

Section 3: "the Intel Nehalem processor provides the Turbo Boost
mechanism that over-clocks cores until temperature rises and as a
result cores might run at different clock speeds."  These tests change
clock factors mid-run and verify (a) exact accounting across the
change and (b) that speed balancing adapts while queue-length
balancing cannot even observe it.
"""

import pytest

from repro.apps.barriers import WaitPolicy
from repro.apps.workloads import ep_app
from repro.balance.linux import LinuxLoadBalancer
from repro.balance.pinned import PinnedBalancer
from repro.core.speed_balancer import SpeedBalancer
from repro.sched.task import WaitMode
from repro.system import System
from repro.topology import presets

from tests.test_core_sim import OneShot, pinned_task


class TestMechanics:
    def test_rate_changes_mid_segment(self):
        """10ms of work: 5ms at 1x, then the core halves -> 5+10 = 15ms."""
        system = System(presets.uniform(1), seed=0)
        system.set_balancer(PinnedBalancer())
        t = pinned_task(OneShot(10_000), 0)
        system.spawn_burst([t])
        system.schedule_clock_change(5_000, 0, 0.5)
        system.run()
        assert t.finished_at == pytest.approx(15_000, abs=5)
        # compute_us is productive *wall* time (10ms of work retired
        # over 5ms at 1x plus 10ms at 0.5x)
        assert t.compute_us == pytest.approx(15_000, abs=5)

    def test_overclock_speeds_up(self):
        system = System(presets.uniform(1), seed=0)
        system.set_balancer(PinnedBalancer())
        t = pinned_task(OneShot(10_000), 0)
        system.spawn_burst([t])
        system.schedule_clock_change(5_000, 0, 2.0)
        system.run()
        assert t.finished_at == pytest.approx(7_500, abs=5)

    def test_validation(self):
        system = System(presets.uniform(1), seed=0)
        with pytest.raises(ValueError):
            system.set_clock_factor(0, 0.0)

    def test_idle_core_change_is_silent(self):
        system = System(presets.uniform(2), seed=0)
        system.set_balancer(PinnedBalancer())
        system.set_clock_factor(1, 1.5)
        assert system.machine.cores[1].clock_factor == 1.5


class TestBalancingUnderThrottling:
    def _run(self, balancer: str, n_threads: int, n_cores: int = 8, seed=0,
             per_thread_us=3_000_000):
        """At t=0.3s cores 0 and 1 throttle to 0.6x."""
        system = System(presets.uniform(n_cores), seed=seed, trace=True)
        system.set_balancer(LinuxLoadBalancer())
        app = ep_app(
            system, n_threads=n_threads,
            wait_policy=WaitPolicy(mode=WaitMode.YIELD),
            total_compute_us=per_thread_us,
        )
        if balancer == "speed":
            system.add_user_balancer(SpeedBalancer(app))
        app.spawn()
        for cid in (0, 1):
            system.schedule_clock_change(300_000, cid, 0.6)
        system.run_until_done([app])
        return system, app

    def test_one_per_core_throttle_speed_does_no_harm(self):
        """With exactly one thread per core, pull-only balancing cannot
        rotate through the throttled cores (moving the victim would
        just double up a fast core); the min-gain guard makes SPEED
        decline, matching LOAD instead of thrashing."""
        sys_speed, app_speed = self._run("speed", n_threads=8)
        sys_load, app_load = self._run("load", n_threads=8)
        assert app_speed.elapsed_us <= 1.02 * app_load.elapsed_us
        pulls = [r for r in sys_speed.trace.migrations if r.reason == "speed.pull"]
        assert len(pulls) == 0

    def test_oversubscribed_throttle_speed_adapts(self):
        """With 12 threads on 8 cores, rotation spreads the throttled
        cores' pain: SPEED clearly beats LOAD after the clock change."""
        sys_speed, app_speed = self._run("speed", n_threads=12,
                                         per_thread_us=2_000_000)
        sys_load, app_load = self._run("load", n_threads=12,
                                       per_thread_us=2_000_000)
        assert app_speed.elapsed_us < 0.9 * app_load.elapsed_us
        pulls = [r for r in sys_speed.trace.migrations if r.reason == "speed.pull"]
        assert any(r.src in (0, 1) for r in pulls)

    def test_load_blind_to_clock_change(self):
        """After its startup-clump fixes, LOAD never reacts to the
        throttle: queue lengths still look balanced."""
        system, app = self._run("load", n_threads=8)
        after_throttle = [
            r for r in system.trace.migrations if r.time > 310_000
        ]
        assert after_throttle == []
        # held to the throttled cores: elapsed ~ work / 0.6
        assert app.elapsed_us == pytest.approx(3_000_000 / 0.6, rel=0.06)
