"""Unit tests for the discrete-event engine."""

import heapq

import pytest

from repro.sim.engine import Engine, Event, SimulationError


class TestScheduling:
    def test_single_event_fires_at_time(self):
        eng = Engine()
        fired = []
        eng.schedule(10, lambda: fired.append(eng.now))
        eng.run()
        assert fired == [10]

    def test_events_fire_in_time_order(self):
        eng = Engine()
        order = []
        eng.schedule(30, lambda: order.append("c"))
        eng.schedule(10, lambda: order.append("a"))
        eng.schedule(20, lambda: order.append("b"))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_equal_time_events_fifo(self):
        eng = Engine()
        order = []
        for i in range(10):
            eng.schedule(5, lambda i=i: order.append(i))
        eng.run()
        assert order == list(range(10))

    def test_zero_delay_runs_after_current_queue(self):
        eng = Engine()
        order = []
        eng.schedule(5, lambda: order.append("first"))

        def chains():
            order.append("chain")
            eng.schedule(0, lambda: order.append("chained"))

        eng.schedule(5, chains)
        eng.schedule(5, lambda: order.append("third"))
        eng.run()
        assert order == ["first", "chain", "third", "chained"]

    def test_schedule_at_absolute(self):
        eng = Engine()
        fired = []
        eng.schedule_at(42, lambda: fired.append(eng.now))
        eng.run()
        assert fired == [42]

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        eng = Engine()
        eng.schedule(10, lambda: eng.schedule_at(5, lambda: None))
        with pytest.raises(SimulationError):
            eng.run()

    @pytest.mark.parametrize("when", [2.5, 10.0, True, False, None, "10"])
    @pytest.mark.parametrize("verb", ["schedule", "schedule_at"])
    def test_non_int_time_rejected(self, verb, when):
        """Engine time is integer microseconds: a float is refused, not
        truncated, and so is a bool."""
        eng = Engine()
        with pytest.raises(SimulationError, match="integer microseconds"):
            getattr(eng, verb)(when, lambda: None)
        assert eng.pending == 0

    def test_clock_starts_at_zero(self):
        assert Engine().now == 0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        fired = []
        ev = eng.schedule(10, lambda: fired.append(1))
        ev.cancel()
        eng.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        eng = Engine()
        ev = eng.schedule(10, lambda: None)
        ev.cancel()
        ev.cancel()
        eng.run()

    def test_cancel_from_another_event(self):
        eng = Engine()
        fired = []
        later = eng.schedule(20, lambda: fired.append("later"))
        eng.schedule(10, later.cancel)
        eng.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        eng = Engine()
        ev1 = eng.schedule(10, lambda: None)
        eng.schedule(20, lambda: None)
        ev1.cancel()
        assert eng.pending == 1


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        eng = Engine()
        fired = []
        eng.schedule(10, lambda: fired.append(10))
        eng.schedule(100, lambda: fired.append(100))
        eng.run(until=50)
        assert fired == [10]
        assert eng.now == 50

    def test_run_until_resumes(self):
        eng = Engine()
        fired = []
        eng.schedule(10, lambda: fired.append(10))
        eng.schedule(100, lambda: fired.append(100))
        eng.run(until=50)
        eng.run()
        assert fired == [10, 100]

    def test_event_exactly_at_until_fires(self):
        eng = Engine()
        fired = []
        eng.schedule(50, lambda: fired.append(50))
        eng.run(until=50)
        assert fired == [50]

    def test_stop_ends_run(self):
        eng = Engine()
        fired = []
        eng.schedule(10, lambda: (fired.append(10), eng.stop()))
        eng.schedule(20, lambda: fired.append(20))
        eng.run()
        assert fired == [10]
        # a later run picks the remaining event up
        eng.run()
        assert fired == [10, 20]

    def test_stop_prevents_clock_jump_to_until(self):
        eng = Engine()
        eng.schedule(10, eng.stop)
        eng.run(until=1_000_000)
        assert eng.now == 10

    def test_step_dispatches_one_event(self):
        eng = Engine()
        fired = []
        eng.schedule(10, lambda: fired.append(1))
        eng.schedule(20, lambda: fired.append(2))
        assert eng.step()
        assert fired == [1]
        assert eng.step()
        assert not eng.step()

    def test_run_not_reentrant(self):
        eng = Engine()
        err = []

        def reenter():
            try:
                eng.run()
            except SimulationError as e:
                err.append(e)

        eng.schedule(1, reenter)
        eng.run()
        assert len(err) == 1

    def test_max_events_guards_livelock(self):
        eng = Engine(max_events=100)

        def loop():
            eng.schedule(1, loop)

        eng.schedule(1, loop)
        with pytest.raises(SimulationError, match="event limit"):
            eng.run()

    def test_max_events_guards_step_too(self):
        eng = Engine(max_events=3)
        for i in range(5):
            eng.schedule(i + 1, lambda: None)
        for _ in range(3):
            assert eng.step()
        with pytest.raises(SimulationError, match="event limit"):
            eng.step()

    def test_step_rejects_backwards_time(self):
        # an event forged behind the clock (bypassing schedule's guard)
        # must not silently rewind time in step() any more than in run()
        eng = Engine()
        eng.schedule(100, lambda: None)
        eng.run()
        forged = Event(50, 10**9, lambda: None, "forged")
        heapq.heappush(eng._heap, (forged.time, forged.seq, forged))
        with pytest.raises(SimulationError, match="backwards"):
            eng.step()
        assert eng.now == 100

    def test_observers_see_each_dispatch(self):
        eng = Engine()
        seen = []
        eng.observers.append(lambda ev: seen.append((ev.time, ev.label)))
        eng.schedule(10, lambda: None, label="a")
        eng.schedule(20, lambda: None, label="b")
        eng.run()
        assert seen == [(10, "a"), (20, "b")]

    def test_dispatched_counter(self):
        eng = Engine()
        for i in range(5):
            eng.schedule(i + 1, lambda: None)
        eng.run()
        assert eng.dispatched == 5


class TestCancellationAccounting:
    """pending is O(1) bookkeeping; it must agree with a heap scan."""

    @staticmethod
    def brute_pending(eng):
        return sum(1 for entry in eng._heap if not entry[2].cancelled)

    def test_pending_consistent_under_heavy_cancellation(self):
        eng = Engine()
        events = [eng.schedule(i + 1, lambda: None) for i in range(500)]
        assert eng.pending == self.brute_pending(eng) == 500
        # cancel in an adversarial deterministic pattern: every 2nd,
        # then every 3rd of the rest, repeatedly triggering compaction
        for stride in (2, 3, 1):
            for ev in events[::stride]:
                ev.cancel()
                assert eng.pending == self.brute_pending(eng)
        assert eng.pending == 0

    def test_compaction_shrinks_heap(self):
        eng = Engine()
        events = [eng.schedule(i + 1, lambda: None) for i in range(200)]
        for ev in events[:150]:
            ev.cancel()
        # >half cancelled on a large heap => compacted in place
        assert len(eng._heap) <= 100
        assert eng.pending == 50
        fired = []
        for ev in events[150:]:
            ev.callback = lambda: fired.append(1)
        eng.run()
        assert len(fired) == 50

    def test_small_heaps_not_compacted(self):
        eng = Engine()
        events = [eng.schedule(i + 1, lambda: None) for i in range(10)]
        for ev in events:
            ev.cancel()
        assert len(eng._heap) == 10  # lazy deletion still in effect
        assert eng.pending == 0

    def test_cancel_after_dispatch_does_not_corrupt_pending(self):
        eng = Engine()
        handle = eng.schedule(1, lambda: None)
        eng.schedule(2, lambda: None)
        assert eng.step()
        handle.cancel()  # already fired: must not count against the heap
        assert eng.pending == 1 == self.brute_pending(eng)

    def test_cancel_reschedule_churn_stays_bounded(self):
        # the balancer-timer pattern: cancel + reschedule forever must
        # not grow the heap without bound (lazy deletion alone would)
        eng = Engine()
        timer = eng.schedule(10, lambda: None)
        for i in range(10_000):
            timer.cancel()
            timer = eng.schedule(10 + i, lambda: None)
            assert eng.pending == 1
        assert len(eng._heap) < 200

    def test_forged_event_without_engine_is_safe(self):
        eng = Engine()
        eng.schedule(5, lambda: None)
        forged = Event(7, 10**9, lambda: None, "forged")
        heapq.heappush(eng._heap, (forged.time, forged.seq, forged))
        forged.cancel()  # no engine backref: silently uncounted
        assert eng.pending == 2  # conservative: counted live until popped
        eng.run()
        assert eng.pending == 0

    def test_pending_during_run(self):
        eng = Engine()
        seen = []
        later = eng.schedule(20, lambda: None)

        def first():
            later.cancel()
            seen.append(eng.pending)

        eng.schedule(10, first)
        eng.run()
        assert seen == [0]


class TestIntrospection:
    def test_peek_time(self):
        eng = Engine()
        assert eng.peek_time() is None
        ev = eng.schedule(10, lambda: None)
        eng.schedule(20, lambda: None)
        assert eng.peek_time() == 10
        ev.cancel()
        assert eng.peek_time() == 20

    def test_event_repr_mentions_state(self):
        eng = Engine()
        ev = eng.schedule(10, lambda: None, label="lbl")
        assert "pending" in repr(ev)
        ev.cancel()
        assert "cancelled" in repr(ev)
