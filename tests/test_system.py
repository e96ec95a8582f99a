"""Unit tests for the System orchestrator: spawn, migrate, wake, run."""

import pytest

from repro.balance.base import NoBalancer
from repro.mem.cache_model import CacheModel
from repro.sched.task import Task, TaskState
from repro.system import System
from repro.topology import presets

from tests.test_core_sim import OneShot, pinned_task


def make_system(machine=None, seed=0, **kwargs) -> System:
    system = System(machine or presets.uniform(4), seed=seed, **kwargs)
    system.set_balancer(NoBalancer())
    return system


class TestSpawnBurst:
    def test_burst_shares_stale_snapshot(self):
        """All threads of one burst see pre-burst loads (footnote 1)."""
        system = make_system(presets.uniform(2), seed=0)
        # core 1 busy before the burst
        pre = pinned_task(OneShot(100_000), 1, name="pre")
        system.spawn_burst([pre], at=0)
        burst = [Task(program=OneShot(10_000), name=f"b{i}") for i in range(2)]
        system.spawn_burst(burst, at=1_000)
        system.run(until=2_000)
        # both burst members saw core0=0, core1=1 and picked core 0
        assert all(t.cur_core == 0 or t.last_core == 0 for t in burst)

    def test_spawn_at_future_time(self):
        system = make_system()
        t = pinned_task(OneShot(1_000), 0)
        system.spawn_burst([t], at=5_000)
        system.run()
        assert t.started_at == 5_000
        assert t.finished_at == 6_000

    def test_single_core_affinity_bypasses_balancer(self):
        system = make_system()
        t = pinned_task(OneShot(1_000), 3)
        system.spawn_burst([t])
        system.run(until=100)
        assert t.cur_core == 3

    def test_tasks_registered(self):
        system = make_system()
        ts = [pinned_task(OneShot(1_000), i) for i in range(3)]
        system.spawn_burst(ts)
        system.run(until=10)
        assert set(system.tasks) == set(ts)


class TestMigrate:
    def _runnable_pair(self, system):
        """Two tasks on core 0: one runs, one queues."""
        a = pinned_task(OneShot(100_000), 0, name="a")
        b = Task(program=OneShot(100_000), name="b")
        b.pin({0, 1})
        system.spawn_burst([a, b])
        system.run(until=1_000)
        running = a if a.state == TaskState.RUNNING else b
        queued = b if running is a else a
        return running, queued

    def test_migrate_queued_task(self):
        system = make_system()
        running, queued = self._runnable_pair(system)
        assert system.migrate(queued, 1, reason="test")
        assert queued.cur_core == 1
        assert queued.migrations == 1

    def test_nonforced_refuses_running_task(self):
        system = make_system()
        running, _ = self._runnable_pair(system)
        running.allowed_cores = frozenset({0, 1})
        assert not system.migrate(running, 1, reason="test")
        assert running.cur_core == 0

    def test_forced_moves_running_task(self):
        system = make_system()
        running, _ = self._runnable_pair(system)
        running.allowed_cores = frozenset({0, 1})
        assert system.migrate(running, 1, forced=True, reason="test")
        assert running.cur_core == 1
        # the source core picked up the queued task immediately
        assert system.cores[0].current is not None

    def test_migration_pays_cache_debt(self):
        # tigerton cores 0 and 4 share no cache: full refill cost
        system = make_system(
            presets.tigerton(),
            cache_model=CacheModel(min_cost_us=500.0),
        )
        _, queued = self._runnable_pair(system)
        queued.footprint_bytes = 1 << 20
        queued.allowed_cores = frozenset({0, 4})
        system.migrate(queued, 4, reason="test")
        assert queued.migration_debt_us >= 500.0

    def test_affinity_respected(self):
        system = make_system()
        _, queued = self._runnable_pair(system)  # allowed {0, 1}
        assert not system.migrate(queued, 2, reason="test")

    def test_pin_overrides_affinity(self):
        system = make_system()
        _, queued = self._runnable_pair(system)
        assert system.migrate(queued, 2, forced=True, pin=True, reason="test")
        assert queued.allowed_cores == frozenset({2})

    def test_same_core_is_noop(self):
        system = make_system()
        _, queued = self._runnable_pair(system)
        assert not system.migrate(queued, 0, reason="test")
        assert queued.migrations == 0

    def test_sleeping_task_not_migrated(self):
        system = make_system()
        t = pinned_task(OneShot(1_000), 0)
        t.state = TaskState.SLEEPING
        t.allowed_cores = None
        assert not system.migrate(t, 1, reason="test")

    def test_vruntime_renormalized(self):
        system = make_system()
        _, queued = self._runnable_pair(system)
        system.cores[1].rq.min_vruntime = 1_000_000.0
        before = queued.vruntime
        system.migrate(queued, 1, reason="test")
        # vruntime shifted by the min_vruntime delta between queues
        assert queued.vruntime == pytest.approx(
            before - system.cores[0].rq.min_vruntime + 1_000_000.0
        )

    def test_migration_log_and_counts(self):
        system = make_system(trace=True)
        _, queued = self._runnable_pair(system)
        system.migrate(queued, 1, reason="unit.test")
        assert system.migration_counts["unit.test"] == 1
        rec = system.trace.migrations[-1]
        assert rec.src == 0 and rec.dst == 1 and rec.reason == "unit.test"
        assert system.total_migrations() == 1


class TestWakeAndSleep:
    def test_wake_prefers_previous_core(self):
        system = make_system()
        t = Task(program=OneShot(1_000))
        t.state = TaskState.SLEEPING
        t.last_core = 2
        system.tasks.append(t)
        system.wake(t)
        assert t.cur_core == 2

    def test_wake_respects_affinity(self):
        system = make_system()
        t = Task(program=OneShot(1_000))
        t.state = TaskState.SLEEPING
        t.last_core = 2
        t.pin({0})
        system.tasks.append(t)
        system.wake(t)
        assert t.cur_core == 0

    def test_wake_with_latency(self):
        system = make_system()
        t = Task(program=OneShot(1_000))
        t.state = TaskState.SLEEPING
        t.last_core = 0
        system.tasks.append(t)
        system.wake(t, latency_us=500)
        assert t.state == TaskState.SLEEPING
        system.run(until=600)
        assert t.state in (TaskState.RUNNABLE, TaskState.RUNNING)

    def test_double_wake_is_harmless(self):
        system = make_system()
        t = Task(program=OneShot(1_000))
        t.state = TaskState.SLEEPING
        t.last_core = 0
        system.tasks.append(t)
        system.wake(t)
        system.wake(t)  # no-op: already awake
        assert system.cores[0].nr_running == 1

    def test_sleeper_gets_vruntime_credit(self):
        system = make_system()
        system.cores[0].rq.min_vruntime = 100_000.0
        t = Task(program=OneShot(1_000))
        t.state = TaskState.SLEEPING
        t.last_core = 0
        t.vruntime = 0.0
        system.tasks.append(t)
        system.wake(t)
        assert t.vruntime == 100_000.0 - system.cfs_params.sleeper_credit


class TestRunUntilDone:
    def test_stops_when_apps_finish_despite_background(self):
        system = make_system()
        from repro.apps.multiprogram import CpuHog

        hog = CpuHog(system, core=3)
        hog.spawn()
        t = pinned_task(OneShot(10_000), 0)

        class FakeApp:
            tasks = [t]

        system.spawn_burst([t])
        system.run_until_done([FakeApp()])
        assert t.state == TaskState.FINISHED
        assert system.engine.now < 1_000_000  # didn't run to the limit

    def test_limit_raises_on_unfinished(self):
        system = make_system()
        from repro.apps.multiprogram import CpuHog

        hog = CpuHog(system, core=0)  # never finishes
        hog.spawn()

        class FakeApp:
            tasks = [hog.task]

        with pytest.raises(RuntimeError, match="unfinished"):
            system.run_until_done([FakeApp()], limit_us=50_000)

    def test_empty_watch_returns_immediately(self):
        system = make_system()

        class FakeApp:
            tasks = []

        system.run_until_done([FakeApp()])
        assert system.engine.now == 0

    def test_exit_callbacks_fire_once(self):
        system = make_system()
        t = pinned_task(OneShot(1_000), 0)
        calls = []
        system.on_exit(t, lambda task: calls.append(task.tid))
        system.spawn_burst([t])
        system.run()
        assert calls == [t.tid]


class TestIntrospection:
    def test_queue_lengths(self):
        system = make_system()
        ts = [pinned_task(OneShot(50_000), 0) for _ in range(3)]
        system.spawn_burst(ts)
        system.run(until=1_000)
        assert system.queue_lengths()[0] == 3

    def test_tasks_of_app(self):
        system = make_system()
        a = pinned_task(OneShot(1_000), 0, app_id="x")
        b = pinned_task(OneShot(1_000), 1, app_id="y")
        system.spawn_burst([a, b])
        system.run(until=10)
        assert system.tasks_of_app("x") == [a]

    def test_repr(self):
        assert "uniform4" in repr(make_system())
