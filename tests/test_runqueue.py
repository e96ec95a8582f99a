"""Unit tests for the CFS and round-robin run queues."""

import pytest

from repro.sched.runqueue import CfsRunQueue, RoundRobinQueue
from repro.sched.task import Task


def task_with_vr(vr: float) -> Task:
    t = Task()
    t.vruntime = vr
    return t


class TestCfsRunQueue:
    def test_empty(self):
        q = CfsRunQueue()
        assert len(q) == 0
        assert q.pop_min() is None
        assert q.peek_min() is None

    def test_pop_min_order(self):
        q = CfsRunQueue()
        ts = [task_with_vr(v) for v in (5.0, 1.0, 3.0)]
        for t in ts:
            q.push(t)
        assert [q.pop_min().vruntime for _ in range(3)] == [1.0, 3.0, 5.0]

    def test_fifo_on_equal_vruntime(self):
        q = CfsRunQueue()
        a, b = task_with_vr(1.0), task_with_vr(1.0)
        q.push(a)
        q.push(b)
        assert q.pop_min() is a
        assert q.pop_min() is b

    def test_double_push_rejected(self):
        q = CfsRunQueue()
        t = task_with_vr(0)
        q.push(t)
        with pytest.raises(ValueError):
            q.push(t)

    def test_contains(self):
        q = CfsRunQueue()
        t = task_with_vr(0)
        assert t not in q
        q.push(t)
        assert t in q

    def test_remove_arbitrary(self):
        q = CfsRunQueue()
        ts = [task_with_vr(v) for v in (1.0, 2.0, 3.0)]
        for t in ts:
            q.push(t)
        q.remove(ts[1])
        assert len(q) == 2
        assert q.pop_min() is ts[0]
        assert q.pop_min() is ts[2]

    def test_remove_missing_raises(self):
        q = CfsRunQueue()
        with pytest.raises(ValueError):
            q.remove(task_with_vr(0))

    def test_peek_does_not_remove(self):
        q = CfsRunQueue()
        t = task_with_vr(1.0)
        q.push(t)
        assert q.peek_min() is t
        assert len(q) == 1

    def test_peek_skips_removed(self):
        q = CfsRunQueue()
        a, b = task_with_vr(1.0), task_with_vr(2.0)
        q.push(a)
        q.push(b)
        q.remove(a)
        assert q.peek_min() is b

    def test_min_vruntime_advances_monotonically(self):
        q = CfsRunQueue()
        for v in (5.0, 1.0, 3.0):
            q.push(task_with_vr(v))
        seen = []
        while q.peek_min() is not None:
            q.pop_min()
            seen.append(q.min_vruntime)
        assert seen == sorted(seen)
        assert q.min_vruntime == 5.0

    def test_min_vruntime_never_decreases_via_current(self):
        q = CfsRunQueue()
        q.note_current_vruntime(10.0)
        assert q.min_vruntime == 10.0
        q.note_current_vruntime(5.0)
        assert q.min_vruntime == 10.0

    def test_note_current_uses_leftmost_floor(self):
        q = CfsRunQueue()
        q.push(task_with_vr(3.0))
        q.note_current_vruntime(10.0)  # leftmost is 3.0, so floor is 3.0
        assert q.min_vruntime == 3.0

    def test_max_vruntime(self):
        q = CfsRunQueue()
        assert q.max_vruntime() == q.min_vruntime
        for v in (1.0, 9.0, 4.0):
            q.push(task_with_vr(v))
        assert q.max_vruntime() == 9.0

    def test_requeue_after_vruntime_change(self):
        q = CfsRunQueue()
        a, b = task_with_vr(1.0), task_with_vr(2.0)
        q.push(a)
        q.push(b)
        a.vruntime = 10.0
        q.requeue(a)
        assert q.pop_min() is b

    def test_total_weight(self):
        q = CfsRunQueue()
        q.push(Task(nice=0))
        q.push(Task(nice=0))
        assert q.total_weight() == 2048

    def test_tasks_snapshot(self):
        q = CfsRunQueue()
        ts = [task_with_vr(v) for v in (1.0, 2.0)]
        for t in ts:
            q.push(t)
        assert set(q.tasks()) == set(ts)

    def test_requeue_churn_keeps_max_heap_bounded(self):
        # slice rotation without yields never peeks the max side; its
        # stale entries must still be reclaimed, without changing the
        # pop order or the maximum
        q = CfsRunQueue()
        a, b = task_with_vr(0.0), task_with_vr(0.5)
        q.push(a)
        q.push(b)
        order = []
        for _ in range(1_000):
            t = q.pop_min()
            order.append(t)
            t.vruntime += 1.0
            q.push(t)
            assert len(q._max_heap) <= 4 * len(q) + 64 + 1
        assert order[:4] == [a, b, a, b]
        assert q.max_vruntime() == max(a.vruntime, b.vruntime)
        assert q.pop_min() is (a if a.vruntime < b.vruntime else b)


class TestRoundRobinQueue:
    def test_fifo_order(self):
        q = RoundRobinQueue()
        a, b = Task(), Task()
        q.push_active(a)
        q.push_active(b)
        assert q.pop_active() is a
        assert q.pop_active() is b
        assert q.pop_active() is None

    def test_expired_not_popped(self):
        q = RoundRobinQueue()
        t = Task()
        q.push_expired(t)
        assert q.pop_active() is None
        assert len(q) == 1

    def test_swap(self):
        q = RoundRobinQueue()
        t = Task()
        q.push_expired(t)
        q.swap()
        assert q.pop_active() is t

    def test_remove_from_either(self):
        q = RoundRobinQueue()
        a, b = Task(), Task()
        q.push_active(a)
        q.push_expired(b)
        q.remove(a)
        q.remove(b)
        assert len(q) == 0

    def test_contains_and_tasks(self):
        q = RoundRobinQueue()
        a, b = Task(), Task()
        q.push_active(a)
        q.push_expired(b)
        assert a in q and b in q
        assert q.tasks() == [a, b]
