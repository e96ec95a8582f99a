"""Regression tests for specific bugs fixed during development.

Each test narrates the failure mode it guards against; if one of these
breaks, consult the matching commit before "fixing" the assertion.
"""

import pytest

from repro.apps.barriers import Barrier, WaitPolicy
from repro.apps.workloads import ep_app
from repro.balance.pinned import PinnedBalancer
from repro.sched.task import Action, Program, Task, TaskState, WaitMode
from repro.system import System
from repro.topology import presets
from repro.topology.machine import DomainLevel

from tests.test_core_sim import OneShot, pinned_task


class TestYieldHandoffOnEnqueue:
    """Bug: a lone yield-poller occupied the core in whole 24 ms slices
    and an arriving task (migration or wakeup) had to wait the slice
    out -- real sched_yield loops hand over within microseconds,
    and the delay erased Figure 2's balance-interval benefit."""

    def test_arrival_preempts_lone_yield_poller(self):
        system = System(presets.uniform(2), seed=0)
        system.set_balancer(PinnedBalancer())
        barrier = Barrier(system, 2, WaitPolicy(mode=WaitMode.YIELD))

        class W(Program):
            def __init__(self, w):
                self.steps = [Action.compute(w), Action.wait(barrier), Action.exit()]

            def next_action(self, task, now):
                return self.steps.pop(0)

        poller = Task(program=W(1_000), name="poller")
        poller.pin({0})
        partner = Task(program=W(500_000), name="partner")
        partner.pin({1})
        system.spawn_burst([poller, partner])
        system.run(until=50_000)  # poller is now yield-polling alone
        arrival = pinned_task(OneShot(10_000), 0, name="arrival")
        system.spawn_burst([arrival], at=50_000)
        system.run(until=70_000)
        # the arrival must have started essentially immediately, not a
        # whole scheduler slice later
        assert arrival.exec_time_at(system.engine.now, system.cores[0]) > 9_000


class TestMachineLevelIsNotNuma:
    """Bug: the UMA Tigerton's all-cores domain was classified NUMA,
    so the speed balancer's NUMA blocking forbade every cross-socket
    pull and 16-on-12 stayed at the LOAD shape."""

    def test_cross_socket_pulls_allowed_on_uma(self):
        assert (
            presets.tigerton().domain_level_between(0, 8) == DomainLevel.MACHINE
        )

    def test_speed_wins_cross_socket(self):
        res_speed = None
        from repro.harness.experiment import run_app

        res_speed = run_app(
            presets.tigerton,
            lambda s: ep_app(s, n_threads=16, total_compute_us=1_000_000),
            "speed", cores=12, seed=1,
        )
        assert res_speed.speedup > 9.5


class TestLruSlowCoreCoverage:
    """Bug: choosing the noise-minimum among equally slow cores left
    some 2-thread core unrotated for the whole run (coupon collector),
    gating the app at half speed on Barcelona subsets."""

    def test_every_slow_core_eventually_donates(self):
        from repro.harness.experiment import run_app

        res, system = run_app(
            presets.barcelona,
            lambda s: ep_app(s, n_threads=16, total_compute_us=1_000_000),
            "speed", cores=10, seed=0, return_system=True, trace=True,
        )
        pull_srcs = {
            r.src for r in system.trace.migrations if r.reason == "speed.pull"
        }
        # rotation visited several distinct donors, not one noisy favourite
        assert len(pull_srcs) >= 4
        assert res.speedup > 8.2  # above the one-stuck-pair bound of 8.0


class TestChargeClassificationAtRelease:
    """Bug: barrier release cleared wait flags before charging, so the
    whole spin interval was misclassified as productive compute (and
    work_remaining went negative)."""

    def test_spin_time_not_counted_as_compute(self):
        system = System(presets.uniform(2), seed=0)
        system.set_balancer(PinnedBalancer())
        barrier = Barrier(system, 2, WaitPolicy(mode=WaitMode.SPIN))

        class W(Program):
            def __init__(self, w):
                self.steps = [Action.compute(w), Action.wait(barrier), Action.exit()]

            def next_action(self, task, now):
                return self.steps.pop(0)

        fast = Task(program=W(1_000), name="fast")
        fast.pin({0})
        slow = Task(program=W(40_000), name="slow")
        slow.pin({1})
        system.spawn_burst([fast, slow])
        system.run()
        assert fast.compute_us == pytest.approx(1_000, abs=50)
        assert fast.exec_us == pytest.approx(40_000, rel=0.1)


class TestWatchStopScoping:
    """Bug: any task exit stopped the engine when nothing was being
    watched, truncating plain ``system.run()`` simulations."""

    def test_unwatched_run_completes_all_tasks(self):
        system = System(presets.uniform(1), seed=0)
        system.set_balancer(PinnedBalancer())
        short = pinned_task(OneShot(1_000), 0, name="short")
        long_ = pinned_task(OneShot(50_000), 0, name="long")
        system.spawn_burst([short, long_])
        system.run()
        assert long_.state == TaskState.FINISHED


class TestFirstTouchWindow:
    """Bug: NUMA memory was homed at the kernel's (clumped) initial
    placement, so the speed balancer's startup pinning stranded every
    thread's memory remotely."""

    def test_startup_pinning_rehomes_memory(self):
        from repro.harness.experiment import run_app

        res, system = run_app(
            presets.barcelona,
            lambda s: ep_app(s, n_threads=8, total_compute_us=300_000),
            "speed", cores=8, seed=3, return_system=True,
        )
        tasks = system.tasks_of_app("ep.C")
        remote = [
            t for t in tasks
            if t.home_node is not None
            and t.last_core is not None
            and system.machine.numa_node_of(t.last_core) != t.home_node
        ]
        assert remote == []
