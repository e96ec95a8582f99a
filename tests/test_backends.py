"""The pluggable event-dispatch backends (repro.sim.backends).

The native backend claims bit-identical behaviour to the heap engine.
The scenario golden digests and the generative check in
``test_native_parity.py`` enforce that end to end; these tests pin the
per-primitive semantics the claim rests on -- same-time FIFO order,
lazy cancellation, ``until``/``stop``/``step`` edge cases, compaction
-- on every available backend, plus a randomized differential harness
that drives both backends through identical schedule/cancel churn and
compares every observable, and the failure paths of the compiled loop.
"""

import gc
import random
import sys

import pytest

from repro.sim.backends import (
    ENGINE_BACKENDS,
    NativeEngine,
    backend_available,
    backend_names,
    make_engine,
)
from repro.sim.engine import Engine, SimulationError

needs_native = pytest.mark.skipif(
    not backend_available("native"),
    reason="native backend unavailable (no C toolchain)",
)


def _engines(**kwargs):
    """One fresh engine per backend available on this machine."""
    return [make_engine(n, **kwargs) for n in backend_names() if backend_available(n)]


class TestRegistry:
    def test_backend_names_default_first(self):
        assert backend_names() == ("heap", "native")

    def test_make_engine_types(self):
        assert type(make_engine("heap")) is Engine

    @needs_native
    def test_make_engine_native_type(self):
        assert type(make_engine("native")) is NativeEngine

    def test_unknown_backend_raises(self):
        for name in ("btree", "batched"):
            with pytest.raises(ValueError, match="unknown engine backend"):
                make_engine(name)

    def test_backend_available(self):
        assert backend_available("heap")
        assert not backend_available("batched")
        assert not backend_available("btree")

    def test_all_backends_are_engines(self):
        for cls in ENGINE_BACKENDS.values():
            assert issubclass(cls, Engine)


class TestBatchedSemantics:
    """Same-instant event batches and queue edge cases, on every backend.

    Each test drives every available backend through the same calls,
    so a backend-specific drift shows up as a failure naming it.
    """

    def test_same_time_events_fire_in_seq_order(self):
        for eng in _engines():
            fired = []
            for i in range(5):
                eng.schedule(10, lambda i=i: fired.append(i))
            eng.schedule(5, lambda: fired.append("early"))
            eng.run()
            assert fired == ["early", 0, 1, 2, 3, 4], type(eng)

    def test_callback_scheduling_at_now_extends_the_batch(self):
        for eng in _engines():
            fired = []

            def first(eng=eng, fired=fired):
                fired.append("first")
                eng.schedule(0, lambda: fired.append("appended"))

            eng.schedule(3, first)
            eng.schedule(3, lambda fired=fired: fired.append("second"))
            eng.run()
            # the zero-delay event lands behind everything already
            # queued for t=3, exactly as the (time, seq) order dictates
            assert fired == ["first", "second", "appended"], type(eng)

    def test_schedule_in_past_raises(self):
        for eng in _engines():
            with pytest.raises(SimulationError):
                eng.schedule(-1, lambda: None)
            eng.schedule(5, lambda: None)
            eng.run()
            with pytest.raises(SimulationError):
                eng.schedule_at(4, lambda: None)

    def test_cancel_is_lazy_and_pending_is_exact(self):
        for eng in _engines():
            fired = []
            events = [eng.schedule(7, lambda i=i: fired.append(i)) for i in range(4)]
            assert eng.pending == 4
            events[1].cancel()
            events[2].cancel()
            events[2].cancel()  # idempotent
            assert eng.pending == 2
            eng.run()
            assert fired == [0, 3], type(eng)
            assert eng.pending == 0
            assert eng.dispatched == 2

    def test_compaction_preserves_order_and_counts(self):
        for eng in _engines():
            fired = []
            keep = []
            cancelled = []
            # enough churn to cross the compaction threshold several times
            for i in range(300):
                ev = eng.schedule(10 + (i % 10), lambda i=i: fired.append(i))
                (keep if i % 3 == 0 else cancelled).append(ev)
            for ev in cancelled:
                ev.cancel()
            assert eng.pending == len(keep)
            eng.run()
            survivors = [i for i in range(300) if i % 3 == 0]
            # within each timestamp the survivors keep insertion order,
            # and timestamps drain smallest first
            expected = sorted(survivors, key=lambda i: (10 + (i % 10), i))
            assert fired == expected, type(eng)

    def test_peek_time_skips_cancelled(self):
        for eng in _engines():
            early = eng.schedule(2, lambda: None)
            eng.schedule(9, lambda: None)
            assert eng.peek_time() == 2
            early.cancel()
            assert eng.peek_time() == 9

    def test_run_until_advances_clock_between_buckets(self):
        for eng in _engines():
            fired = []
            eng.schedule(5, lambda: fired.append(5))
            eng.schedule(20, lambda: fired.append(20))
            eng.run(until=12)
            assert fired == [5], type(eng)
            assert eng.now == 12
            eng.run()
            assert fired == [5, 20]

    def test_stop_mid_batch_leaves_rest_of_bucket(self):
        for eng in _engines():
            fired = []
            eng.schedule(4, lambda: fired.append("a"))
            eng.schedule(4, eng.stop)
            eng.schedule(4, lambda: fired.append("b"))
            eng.run()
            assert fired == ["a"], type(eng)
            eng.run()
            assert fired == ["a", "b"]

    def test_step_dispatches_exactly_one(self):
        for eng in _engines():
            fired = []
            eng.schedule(1, lambda: fired.append("x"))
            eng.schedule(1, lambda: fired.append("y"))
            assert eng.step() is True
            assert fired == ["x"], type(eng)
            assert eng.step() is True
            assert eng.step() is False
            assert fired == ["x", "y"]

    def test_max_events_limit(self):
        for eng in _engines(max_events=10):

            def forever(eng=eng):
                eng.schedule(1, forever)

            eng.schedule(0, forever)
            with pytest.raises(SimulationError, match="event limit exceeded"):
                eng.run()

    def test_gc_restored_after_run_and_after_raise(self):
        assert gc.isenabled()
        for eng in _engines():
            eng.schedule(1, lambda: None)
            eng.run()
            assert gc.isenabled(), type(eng)
        for eng in _engines(max_events=1):
            eng.schedule(0, lambda eng=eng: eng.schedule(1, lambda: None))
            eng.schedule(2, lambda: None)
            with pytest.raises(SimulationError):
                eng.run()
            assert gc.isenabled(), type(eng)

    def test_observers_see_every_live_event(self):
        for eng in _engines():
            seen = []
            eng.observers.append(lambda ev: seen.append(ev.label))
            eng.schedule(1, lambda: None, label="a")
            dead = eng.schedule(1, lambda: None, label="dead")
            eng.schedule(2, lambda: None, label="b")
            dead.cancel()
            eng.run()
            assert seen == ["a", "b"], type(eng)


def _churn(eng, seed, n=400):
    """Drive one backend through seeded schedule/cancel/stop churn.

    Pure function of ``seed``: both backends see byte-identical call
    sequences, so every observable (dispatch order, clock, counters)
    must agree.
    """
    rng = random.Random(seed)
    fired = []
    live = []

    def cb(tag):
        fired.append((eng.now, tag))
        for _ in range(rng.randrange(3)):
            tag2 = len(fired) * 1000 + rng.randrange(100)
            live.append(eng.schedule(rng.randrange(6), cb.__wrapped__(tag2)))
        if live and rng.random() < 0.3:
            live.pop(rng.randrange(len(live))).cancel()

    # small indirection so inner callbacks capture their tag eagerly
    cb.__wrapped__ = lambda tag: (lambda: cb(tag))

    for i in range(n):
        live.append(eng.schedule(rng.randrange(50), cb.__wrapped__(i)))
    eng.run(until=30)
    eng.step()
    eng.run()
    return fired


class TestDifferentialParity:
    @needs_native
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_heap_and_native_agree_under_churn(self, seed):
        heap_eng = make_engine("heap")
        native_eng = make_engine("native")
        a = _churn(heap_eng, seed)
        b = _churn(native_eng, seed)
        assert a == b
        assert heap_eng.fingerprint() == native_eng.fingerprint()
        assert heap_eng.pending == native_eng.pending

    def test_until_purge_keeps_pending_in_agreement(self):
        # cancelled events *past* until are purged while they lead the
        # queue; every backend must report the same pending afterwards
        engines = _engines()
        for eng in engines:
            eng.schedule(5, lambda: None)
            doomed = [eng.schedule(40, lambda: None) for _ in range(3)]
            eng.schedule(50, lambda: None)
            for ev in doomed:
                ev.cancel()
            eng.run(until=10)
        assert len({eng.pending for eng in engines}) == 1
        assert {eng.now for eng in engines} == {10}


class TestNativeBackend:
    """The compiled backend's build/cache/fallback machinery.

    Digest parity and churn parity are enforced above and in the golden
    scenario wall; these tests pin the toolchain-facing behaviour: the
    artifact cache makes the compile a one-time cost, machines without
    a compiler degrade to a clear error (and the rest of the suite
    skips), and the fused C path is actually exercised rather than
    silently falling back to generic dispatch.
    """

    @needs_native
    def test_artifact_cached_second_construction_does_not_compile(
        self, monkeypatch, tmp_path
    ):
        from repro.sim.backends import nativebuild

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(nativebuild, "_loaded", {})
        compiles = []
        real_compile = nativebuild._compile

        def counting_compile(cc, out_path):
            compiles.append(out_path)
            return real_compile(cc, out_path)

        monkeypatch.setattr(nativebuild, "_compile", counting_compile)
        NativeEngine()
        assert len(compiles) == 1
        # the process-level dict was cleared, so this exercises the
        # on-disk artifact path: dlopen, no compiler invocation
        monkeypatch.setattr(nativebuild, "_loaded", {})
        NativeEngine()
        assert len(compiles) == 1

    def test_no_toolchain_raises_native_unavailable(self, monkeypatch):
        from repro.sim.backends import NativeUnavailableError, nativebuild

        monkeypatch.setattr(nativebuild, "_find_compiler", lambda: None)
        monkeypatch.setattr(nativebuild, "_loaded", {})
        monkeypatch.setenv("REPRO_NATIVE_CACHE", "/nonexistent/never-here")
        with pytest.raises(NativeUnavailableError, match="C compiler"):
            NativeEngine()
        assert nativebuild.native_available() is False
        assert backend_available("native") is False

    @needs_native
    def test_fused_path_is_exercised(self):
        from repro.harness.scenarios import scenario_smokes
        from repro.sim.backends.nativebuild import native_stats

        before = native_stats()
        scenario_smokes()["ep-speedup"].run(engine="native")
        after = native_stats()
        fused = after["fused"] - before["fused"]
        generic = after["generic"] - before["generic"]
        # the CFS core event dominates every scenario; if the C twin
        # stopped matching the dispatch signature this would collapse
        # to zero while digests stayed green via the Python fallback
        assert fused > generic
        assert fused > 0

    @needs_native
    def test_step_falls_back_to_python_single_dispatch(self):
        eng = make_engine("native")
        fired = []
        eng.schedule(1, lambda: fired.append("x"))
        eng.schedule(1, lambda: fired.append("y"))
        assert eng.step() is True
        assert fired == ["x"]
        eng.run()
        assert fired == ["x", "y"]

    @needs_native
    def test_callback_exception_propagates(self):
        eng = make_engine("native")

        def boom():
            raise RuntimeError("callback exploded")

        eng.schedule(1, boom)
        with pytest.raises(RuntimeError, match="callback exploded"):
            eng.run()

    @needs_native
    def test_max_events_limit_native(self):
        eng = make_engine("native", max_events=10)

        def forever():
            eng.schedule(1, forever)

        eng.schedule(0, forever)
        with pytest.raises(SimulationError, match="event limit exceeded"):
            eng.run()

    @needs_native
    def test_observers_see_every_live_event_native(self):
        eng = make_engine("native")
        seen = []
        eng.observers.append(lambda ev: seen.append(ev.label))
        eng.schedule(1, lambda: None, label="a")
        dead = eng.schedule(1, lambda: None, label="dead")
        eng.schedule(2, lambda: None, label="b")
        dead.cancel()
        eng.run()
        assert seen == ["a", "b"]


def _raise_at(eng, k, seed=3):
    """Seeded churn whose k-th dispatched callback raises once.

    Returns ``(fired, drain)``: ``drain()`` runs the engine, swallowing
    the one planted exception and running again, exactly as a caller
    recovering from a failed callback would.
    """
    rng = random.Random(seed)
    fired = []
    seen = [0]

    def cb(tag):
        seen[0] += 1
        if seen[0] == k:
            raise RuntimeError(f"planted failure at dispatch {k}")
        fired.append((eng.now, tag))
        for _ in range(rng.randrange(3)):
            tag2 = len(fired) * 1000 + rng.randrange(100)
            eng.schedule(rng.randrange(6), lambda t=tag2: cb(t))

    for i in range(60):
        eng.schedule(rng.randrange(40), lambda t=i: cb(t))

    def drain():
        with pytest.raises(RuntimeError, match="planted failure"):
            eng.run()
        after_raise = (eng.now, eng.pending, eng.fingerprint(), list(fired))
        eng.run()
        return after_raise

    return fired, drain


class TestNativeFailurePaths:
    """The compiled drain loop must fail the way the Python loop does.

    A callback raising mid-drain leaves the engine where the heap
    engine leaves it -- same clock, same pending count, same
    fingerprint -- and a later ``run()`` continues identically; a
    callback raising inside the C twin of the core dispatch chain
    leaves the same scheduling state behind; and repeated native runs
    do not leak Python objects.
    """

    @needs_native
    @pytest.mark.parametrize("k", [1, 17, 90])
    def test_exception_mid_drain_then_run_matches_heap(self, k):
        outcomes = []
        for name in ("heap", "native"):
            eng = make_engine(name)
            fired, drain = _raise_at(eng, k)
            after_raise = drain()
            outcomes.append((after_raise, fired, eng.fingerprint(), eng.pending, eng.now))
        assert outcomes[0] == outcomes[1]

    @needs_native
    def test_exception_inside_core_dispatch_leaves_heap_state(self):
        from repro.harness.scenarios import scenario_smokes

        smoke = scenario_smokes()["npb-numa"]

        def interrupted(engine):
            systems = []
            charges = [0]

            def boom(core, task, dt):
                charges[0] += 1
                if charges[0] == 150:
                    raise RuntimeError("charge observer exploded")

            def instrument(system):
                system.charge_observers.append(boom)
                systems.append(system)

            with pytest.raises(RuntimeError, match="charge observer exploded"):
                smoke.run(engine=engine, instrument=instrument)
            system = systems[0]
            eng = system.engine

            def state():
                cores = [
                    (c.current.name if c.current else None, c.rq.count,
                     c.rq.min_vruntime, c._gen, c._in_resched, c.stats)
                    for c in system.cores
                ]
                return (eng.now, eng.pending, eng.fingerprint(), cores,
                        system._load_epoch[0])

            raised = state()
            system.charge_observers.remove(boom)
            eng.run(until=eng.now + 50_000)
            return raised, state()

        assert interrupted("heap") == interrupted("native")

    @needs_native
    def test_repeated_native_runs_keep_allocated_blocks_flat(self):
        from repro.harness.scenarios import scenario_smokes

        smokes = scenario_smokes()

        def run_once():
            for name in ("npb-numa", "cpu-hog"):
                smokes[name].run(engine="native")
            gc.collect()

        for _ in range(3):  # warm-up: caches, interned names, free lists
            run_once()
        base = sys.getallocatedblocks()
        for _ in range(8):
            run_once()
        growth = sys.getallocatedblocks() - base
        # one leaked object per dispatched event would be tens of
        # thousands of blocks over these runs
        assert growth < 500, f"{growth} blocks still allocated after 8 runs"
