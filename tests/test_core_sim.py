"""Unit tests for CoreSim: dispatch, charging, waits, rates."""

import pytest

from repro.apps.barriers import Barrier, WaitPolicy
from repro.balance.base import NoBalancer
from repro.sched.task import Action, Program, Task, TaskState, WaitMode
from repro.sim.backends import backend_available
from repro.sim.engine import SimulationError
from repro.system import System
from repro.topology import presets


class OneShot(Program):
    """Compute a fixed amount of work, then exit."""

    def __init__(self, work_us: int):
        self.work_us = work_us
        self.issued = False

    def next_action(self, task, now):
        if self.issued:
            return Action.exit()
        self.issued = True
        return Action.compute(self.work_us)


class SleepyProgram(Program):
    """compute -> sleep -> compute -> exit."""

    def __init__(self, work_us: int, sleep_us: int):
        self.steps = [
            Action.compute(work_us),
            Action.sleep(sleep_us),
            Action.compute(work_us),
            Action.exit(),
        ]

    def next_action(self, task, now):
        return self.steps.pop(0)


def make_system(machine=None, seed=0) -> System:
    system = System(machine or presets.uniform(2), seed=seed)
    system.set_balancer(NoBalancer())
    return system


def pinned_task(program, core: int, **kwargs) -> Task:
    t = Task(program=program, **kwargs)
    t.pin({core})
    return t


class TestSingleTask:
    def test_task_computes_exact_work(self):
        system = make_system()
        t = pinned_task(OneShot(10_000), 0)
        system.spawn_burst([t])
        system.run()
        assert t.state == TaskState.FINISHED
        assert t.finished_at == 10_000
        assert t.exec_us == 10_000
        assert t.compute_us == 10_000

    def test_clock_factor_scales_time(self):
        system = make_system(presets.asymmetric([2.0, 1.0]))
        t = pinned_task(OneShot(10_000), 0)
        system.spawn_burst([t])
        system.run()
        assert t.finished_at == pytest.approx(5_000, abs=2)

    def test_slow_core(self):
        system = make_system(presets.asymmetric([0.5, 1.0]))
        t = pinned_task(OneShot(10_000), 0)
        system.spawn_burst([t])
        system.run()
        assert t.finished_at == pytest.approx(20_000, abs=2)

    def test_migration_debt_is_unproductive_time(self):
        system = make_system()
        t = pinned_task(OneShot(10_000), 0)
        t.migration_debt_us = 2_000
        system.spawn_burst([t])
        system.run()
        assert t.finished_at == pytest.approx(12_000, abs=2)
        assert t.compute_us == pytest.approx(10_000, abs=2)
        assert t.exec_us == pytest.approx(12_000, abs=2)

    def test_core_stats_busy_time(self):
        system = make_system()
        t = pinned_task(OneShot(10_000), 0)
        system.spawn_burst([t])
        system.run()
        assert system.cores[0].stats.busy_us == 10_000
        assert system.cores[1].stats.busy_us == 0


class TestFairSharing:
    def test_two_tasks_share_fairly(self):
        system = make_system()
        a = pinned_task(OneShot(50_000), 0, name="a")
        b = pinned_task(OneShot(50_000), 0, name="b")
        system.spawn_burst([a, b])
        system.run()
        # both need 50ms of work on a shared core: last finishes at ~100ms
        assert max(a.finished_at, b.finished_at) == pytest.approx(100_000, rel=0.01)
        # the first to finish cannot beat 50ms of pure execution, and
        # fairness keeps it within one slice of the other
        assert min(a.finished_at, b.finished_at) >= 50_000

    def test_vruntime_gap_bounded(self):
        system = make_system()
        a = pinned_task(OneShot(60_000), 0)
        b = pinned_task(OneShot(60_000), 0)
        system.spawn_burst([a, b])
        system.run(until=50_000)
        assert abs(a.vruntime - b.vruntime) <= 2 * system.cfs_params.target_latency

    def test_three_way_sharing(self):
        system = make_system()
        ts = [pinned_task(OneShot(30_000), 0, name=f"t{i}") for i in range(3)]
        system.spawn_burst(ts)
        system.run()
        assert max(t.finished_at for t in ts) == pytest.approx(90_000, rel=0.01)

    def test_nice_weighting_shifts_share(self):
        system = make_system()
        fast = pinned_task(OneShot(50_000), 0, nice=-5, name="hi")
        slow = pinned_task(OneShot(50_000), 0, nice=5, name="lo")
        system.spawn_burst([fast, slow])
        system.run()
        assert fast.finished_at < slow.finished_at

    def test_context_switches_counted(self):
        system = make_system()
        a = pinned_task(OneShot(50_000), 0)
        b = pinned_task(OneShot(50_000), 0)
        system.spawn_burst([a, b])
        system.run()
        assert system.cores[0].stats.context_switches >= 4


class TestSleep:
    def test_sleep_blocks_then_resumes(self):
        system = make_system()
        t = pinned_task(SleepyProgram(10_000, 5_000), 0)
        system.spawn_burst([t])
        system.run()
        assert t.finished_at == pytest.approx(25_000, abs=10)
        assert t.exec_us == pytest.approx(20_000, abs=10)

    def test_sleeper_leaves_core_idle(self):
        system = make_system()
        t = pinned_task(SleepyProgram(10_000, 5_000), 0)
        system.spawn_burst([t])
        system.run(until=12_000)
        assert system.cores[0].is_idle
        assert t.state == TaskState.SLEEPING

    def test_corunner_runs_during_sleep(self):
        system = make_system()
        sleeper = pinned_task(SleepyProgram(10_000, 40_000), 0, name="sleeper")
        worker = pinned_task(OneShot(40_000), 0, name="worker")
        system.spawn_burst([sleeper, worker])
        system.run()
        # worker gets the whole core while the sleeper is blocked, so it
        # finishes well before 2x its work
        assert worker.finished_at < 65_000


class TestWakeupPreemption:
    def test_woken_task_preempts_long_runner(self):
        system = make_system()
        # the sleeper accumulates low vruntime credit while blocked
        sleeper = pinned_task(SleepyProgram(1_000, 30_000), 0, name="sleeper")
        hog = pinned_task(OneShot(200_000), 0, name="hog")
        system.spawn_burst([sleeper, hog])
        system.run()
        # sleeper's second 1ms burst lands mid-hog; with preemption it
        # completes long before the hog's 200ms demand does
        assert sleeper.finished_at < hog.finished_at


class TestBarrierWaitModes:
    def _barrier_pair(self, system, mode, work_a=10_000, work_b=30_000):
        policy = WaitPolicy(mode=mode)
        barrier = Barrier(system, parties=2, policy=policy)

        class P(Program):
            def __init__(self, work):
                self.steps = [Action.compute(work), Action.wait(barrier), Action.exit()]

            def next_action(self, task, now):
                return self.steps.pop(0)

        a = pinned_task(P(work_a), 0, name="a")
        b = pinned_task(P(work_b), 1, name="b")
        return a, b, barrier

    def test_spin_waiter_burns_cpu(self):
        system = make_system()
        a, b, _ = self._barrier_pair(system, WaitMode.SPIN)
        system.spawn_burst([a, b])
        system.run()
        # a spins 20ms waiting for b
        assert a.exec_us == pytest.approx(30_000, rel=0.05)
        assert a.compute_us == pytest.approx(10_000, abs=100)
        assert system.cores[0].stats.spin_us > 15_000

    def test_sleep_waiter_releases_cpu(self):
        system = make_system()
        a, b, _ = self._barrier_pair(system, WaitMode.SLEEP)
        system.spawn_burst([a, b])
        system.run()
        assert a.exec_us == pytest.approx(10_000, rel=0.05)

    def test_yield_waiter_lets_corunner_dominate(self):
        system = make_system()
        a, b, barrier = self._barrier_pair(system, WaitMode.YIELD)
        # put a co-runner on a's core: the yielding waiter should cede
        worker = pinned_task(OneShot(20_000), 0, name="worker")
        system.spawn_burst([a, b, worker])
        system.run()
        # worker needs 20ms; yield-waiter interference is small
        assert worker.finished_at < 40_000

    def test_all_modes_finish_together(self):
        for mode in (WaitMode.SPIN, WaitMode.YIELD, WaitMode.SLEEP):
            system = make_system()
            a, b, _ = self._barrier_pair(system, mode)
            system.spawn_burst([a, b])
            system.run()
            assert a.state == b.state == TaskState.FINISHED
            # both exit shortly after the slower thread's 30ms
            assert abs(a.finished_at - b.finished_at) < 10_000


class TestEffectiveRate:
    def test_numa_remote_slowdown_applies(self):
        system = make_system(presets.barcelona())
        t = pinned_task(OneShot(10_000), 0)
        system.spawn_burst([t])
        system.run(until=1_000)  # first touch on node 0
        assert t.home_node == 0
        rate_home = system.cores[0].effective_rate(t)
        rate_remote = system.cores[4].effective_rate(t)
        assert rate_home == pytest.approx(1.0)
        assert rate_remote == pytest.approx(1.0 / 1.3)

    def test_smt_derate_when_sibling_busy(self):
        system = make_system(presets.nehalem())
        a = pinned_task(OneShot(100_000), 0, name="a")
        b = pinned_task(OneShot(100_000), 1, name="b")  # SMT sibling
        system.spawn_burst([a, b])
        system.run()
        # both finish late because the shared physical core derates
        assert a.finished_at > 120_000
        # but faster than full serialization
        assert a.finished_at < 200_000

    def test_smt_full_speed_when_sibling_idle(self):
        system = make_system(presets.nehalem())
        t = pinned_task(OneShot(10_000), 0)
        system.spawn_burst([t])
        system.run()
        assert t.finished_at == pytest.approx(10_000, abs=10)

    def test_mem_contention_slows_both(self):
        system = make_system(presets.tigerton())
        a = pinned_task(OneShot(50_000), 0, name="a", mem_intensity=0.8)
        b = pinned_task(OneShot(50_000), 1, name="b", mem_intensity=0.8)
        system.spawn_burst([a, b])
        system.run()
        assert a.finished_at > 51_000  # slower than solo

    def test_cpu_bound_immune_to_contention(self):
        system = make_system(presets.tigerton())
        a = pinned_task(OneShot(50_000), 0, name="a", mem_intensity=0.0)
        b = pinned_task(OneShot(50_000), 1, name="b", mem_intensity=0.9)
        system.spawn_burst([a, b])
        system.run()
        assert a.finished_at == pytest.approx(50_000, abs=100)


class TestIdleCallbacks:
    def test_idle_callback_invoked(self):
        system = make_system()
        calls = []
        system.cores[0].idle_callbacks.append(lambda core: calls.append(core.cid))
        t = pinned_task(OneShot(1_000), 0)
        system.spawn_burst([t])
        system.run()
        assert 0 in calls

    def test_idle_pull_from_callback(self):
        """An idle callback may migrate work in; dispatch continues.

        Idle callbacks fire on busy->idle transitions (a core idle from
        t=0 relies on the kernel balancer's periodic tick instead), so
        core 1 gets a short warm-up task.
        """
        system = make_system()
        warmup = pinned_task(OneShot(1_000), 1, name="warmup")
        a = pinned_task(OneShot(50_000), 0, name="a")
        b = pinned_task(OneShot(50_000), 0, name="b")
        b.allowed_cores = frozenset({0, 1})

        def steal(core):
            if b.state == TaskState.RUNNABLE and b.cur_core == 0:
                system.migrate(b, 1, reason="test.steal")

        system.cores[1].idle_callbacks.append(steal)
        system.spawn_burst([warmup, a, b])
        system.run()
        assert b.migrations >= 1
        # with the steal, a and b each get a core: both done by ~55ms
        assert max(a.finished_at, b.finished_at) < 62_000


@pytest.mark.no_invariants  # INV004's scan would see the corrupt state first
@pytest.mark.parametrize("engine", [
    "heap",
    pytest.param("native", marks=pytest.mark.skipif(
        not backend_available("native"), reason="native backend unavailable (no C toolchain)",
    )),
])
def test_put_back_of_a_task_that_is_not_running_raises(engine):
    """A task leaves RUNNING only through its own core, so a core whose
    current task is in another state at put-back refuses to go on, on
    the Python chain and its C twin alike."""
    system = System(presets.uniform(2), seed=0, engine=engine)
    system.set_balancer(NoBalancer())
    task = pinned_task(OneShot(100_000), 0)
    system.spawn_burst([task])

    def corrupt():
        assert system.cores[0].current is task
        task.state = TaskState.SLEEPING  # without descheduling it

    system.engine.schedule(1_000, corrupt)
    with pytest.raises(SimulationError, match="not running"):
        system.run(until=200_000)

