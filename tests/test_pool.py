"""The worker pool :func:`map_specs` and ``repro serve`` share
(:mod:`repro.harness.pool`), driven directly.

The crash, timeout and respawn paths are covered where the pool is
used (tests/test_parallel_harness.py, tests/test_service.py and
tests/test_serve_server.py); these tests pin the two properties only
a direct driver shows: the daemon's split of one submitting thread
and one waiting thread, and a job whose exception cannot cross the
pipe.
"""

import queue
import sys
import threading

from repro.harness.pool import WorkerPool


def square(x):
    return x * x


class Unpicklable(Exception):
    """An exception carrying a lambda, which pickle refuses."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


def refuse(message):
    raise Unpicklable(message)


def test_one_thread_submits_another_waits_every_job_once():
    """More workers than cores, a tiny switch interval and a deadline
    that wakes the waiter on every submit: each job's outcome arrives
    exactly once, carrying its own token and value, and a stop from
    the submitting thread ends the wait."""
    n_jobs, outcomes, idle = 300, [], queue.Queue()
    pool = WorkerPool(4, square, timeout_s=60)

    def pump():
        while batch := pool.wait():
            for outcome in batch:
                outcomes.append(outcome)
                idle.put(outcome.worker)

    waiter = threading.Thread(target=pump)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        waiter.start()
        for w in range(pool.n):
            idle.put(w)
        for i in range(n_jobs):
            pool.submit(idle.get(timeout=30), i, i)
        for _ in range(pool.n):  # every worker came back idle
            idle.get(timeout=30)
    finally:
        pool.stop()
        sys.setswitchinterval(old)
    waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert sorted(o.token for o in outcomes) == list(range(n_jobs))
    assert all(o.ok and o.value == o.token * o.token for o in outcomes)


def test_exception_that_does_not_pickle_comes_back_named():
    with WorkerPool(1, refuse) as pool:
        pool.submit(0, "job", "no pickle for me")
        (outcome,) = pool.wait()
    assert not outcome.ok
    assert type(outcome.value) is RuntimeError
    assert str(outcome.value) == "Unpicklable: no pickle for me"
