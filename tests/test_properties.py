"""Property-based tests: conservation laws of the simulator.

Whatever the balancer, topology, wait mode or seed, some invariants
must hold exactly:

* work conservation -- every thread's productive execution equals its
  program's compute demand;
* occupancy accounting -- a core's busy time equals the execution time
  charged to the tasks that ran there, and no core is ever busier than
  wall time;
* lifecycle sanity -- every finished task started, finished after
  starting, and the app's finish equals the max over threads;
* affinity -- a task never executes on a core outside its mask (checked
  via the migration log and final placement).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.barriers import WaitPolicy
from repro.apps.spmd import SpmdApp
from repro.harness.experiment import run_app
from repro.sched.task import TaskState, WaitMode
from repro.topology import presets

MODES = ["speed", "load", "pinned", "dwrr", "ule", "none"]
WAITS = [WaitMode.SPIN, WaitMode.YIELD, WaitMode.SLEEP]


def run_random_config(
    mode, wait, n_threads, n_cores, iterations, work_us, seed, trace=False
):
    def factory(system):
        return SpmdApp(
            system,
            "papp",
            n_threads,
            work_us=work_us,
            iterations=iterations,
            wait_policy=WaitPolicy(mode=wait),
        )

    return run_app(
        presets.tigerton,
        factory,
        balancer=mode,
        cores=n_cores,
        seed=seed,
        return_system=True,
        trace=trace,
    )


config = dict(
    mode=st.sampled_from(MODES),
    wait=st.sampled_from(WAITS),
    n_threads=st.integers(min_value=1, max_value=10),
    n_cores=st.integers(min_value=1, max_value=8),
    iterations=st.integers(min_value=1, max_value=3),
    work_us=st.integers(min_value=1_000, max_value=60_000),
    seed=st.integers(min_value=0, max_value=100),
)


@given(**config)
@settings(max_examples=40, deadline=None)
def test_work_conservation(mode, wait, n_threads, n_cores, iterations, work_us, seed):
    """Productive execution == compute demand, for every thread."""
    res, system = run_random_config(
        mode, wait, n_threads, n_cores, iterations, work_us, seed
    )
    for t, compute in zip(system.tasks_of_app("papp"), res.thread_compute_us):
        demand = work_us * iterations
        assert compute == pytest.approx(demand, abs=iterations * 3 + 3)


@given(**config)
@settings(max_examples=40, deadline=None)
def test_occupancy_accounting(mode, wait, n_threads, n_cores, iterations, work_us, seed):
    """Total core busy time == total task exec time; no over-commit."""
    res, system = run_random_config(
        mode, wait, n_threads, n_cores, iterations, work_us, seed
    )
    wall = system.engine.now
    total_busy = sum(c.stats.busy_us for c in system.cores)
    total_exec = sum(t.exec_us for t in system.tasks)
    # in-flight time of still-running tasks is not yet charged; here
    # all tasks finished, so the books must balance exactly
    assert total_busy == total_exec
    for c in system.cores:
        assert 0 <= c.stats.busy_us <= wall


@given(**config)
@settings(max_examples=40, deadline=None)
def test_lifecycle_sanity(mode, wait, n_threads, n_cores, iterations, work_us, seed):
    res, system = run_random_config(
        mode, wait, n_threads, n_cores, iterations, work_us, seed
    )
    app_tasks = system.tasks_of_app("papp")
    assert len(app_tasks) == n_threads
    for t in app_tasks:
        assert t.state == TaskState.FINISHED
        assert t.started_at is not None and t.finished_at is not None
        assert t.finished_at > t.started_at
        assert t.exec_us >= t.compute_us
    assert res.elapsed_us == max(t.finished_at for t in app_tasks) - min(
        t.started_at for t in app_tasks
    )


@given(**config)
@settings(max_examples=40, deadline=None)
def test_affinity_never_violated(mode, wait, n_threads, n_cores, iterations, work_us, seed):
    """No migration ever lands a task outside the core subset."""
    res, system = run_random_config(
        mode, wait, n_threads, n_cores, iterations, work_us, seed, trace=True
    )
    allowed = set(range(n_cores))
    tids = {t.tid for t in system.tasks_of_app("papp")}
    for rec in system.trace.migrations:
        if rec.tid in tids:
            assert rec.dst in allowed


@given(**config)
@settings(max_examples=25, deadline=None)
def test_determinism(mode, wait, n_threads, n_cores, iterations, work_us, seed):
    """Same configuration, same seed => bit-identical outcome."""
    a, sys_a = run_random_config(mode, wait, n_threads, n_cores, iterations, work_us, seed)
    b, sys_b = run_random_config(mode, wait, n_threads, n_cores, iterations, work_us, seed)
    assert a.elapsed_us == b.elapsed_us
    assert a.thread_exec_us == b.thread_exec_us
    assert sys_a.total_migrations() == sys_b.total_migrations()


@given(
    wait=st.sampled_from(WAITS),
    works=st.lists(st.integers(min_value=1_000, max_value=50_000), min_size=2, max_size=6),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=30, deadline=None)
def test_barrier_gates_all_threads(wait, works, seed):
    """No thread exits a barrier-terminated app before the slowest
    thread's compute could possibly be done."""
    n = len(works)

    def factory(system):
        return SpmdApp(
            system, "papp", n, work_us=works, iterations=1,
            wait_policy=WaitPolicy(mode=wait),
        )

    res, system = run_app(
        presets.tigerton, factory, balancer="load", cores=n, seed=seed,
        return_system=True,
    )
    slowest_demand = max(works)
    for t in system.tasks_of_app("papp"):
        assert t.finished_at >= slowest_demand


@given(
    n_threads=st.integers(min_value=1, max_value=12),
    n_cores=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=30, deadline=None)
def test_speedup_physical_bounds(n_threads, n_cores, seed):
    """Speedup never exceeds min(threads, cores) on a uniform machine."""
    def factory(system):
        return SpmdApp(
            system, "papp", n_threads, work_us=100_000, iterations=1,
            wait_policy=WaitPolicy(mode=WaitMode.SLEEP),
            barrier_every_iteration=False,
        )

    res = run_app(presets.uniform(8), factory, balancer="speed",
                  cores=n_cores, seed=seed)
    assert res.speedup <= min(n_threads, n_cores) + 1e-6
    assert res.speedup > 0
