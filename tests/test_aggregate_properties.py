"""Maintained aggregates vs from-scratch recomputation.

The hot paths read aggregates that are *maintained* at mutation time --
run-queue ``total_weight``/``max_vruntime``/``count``, the per-scope
memory-intensity index behind ``CoreSim.effective_rate`` -- instead of
being recomputed by scanning at query time.  These property tests drive
random operation streams and assert, after every single operation, that
each maintained value equals the value a naive scan would produce.

The final class pins ``run_digest`` for every scenario smoke to golden
values captured before the aggregate/columnar-recorder work landed:
bit-identical behaviour is this refactor's contract, so a digest drift
here is a determinism regression (an *intentional* behaviour change
must update the goldens alongside an explanation).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import run_digest
from repro.sched.runqueue import CfsRunQueue, O1RunQueue
from repro.sched.task import Task
from repro.sim.backends import backend_names

# operation stream over a bounded task universe:
#   ("push", slot, vruntime, weight) | ("pop",) |
#   ("remove", slot) | ("requeue", slot, new_vruntime)
_vr = st.floats(min_value=0, max_value=1e6, allow_nan=False)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 15), _vr,
                  st.sampled_from([512, 1024, 2048, 3072])),
        st.tuples(st.just("pop")),
        st.tuples(st.just("remove"), st.integers(0, 15)),
        st.tuples(st.just("requeue"), st.integers(0, 15), _vr),
    ),
    min_size=1,
    max_size=80,
)


def _apply_ops(q, ops):
    """Drive ``q`` with ``ops``; yield ``(live, pushed, popped)`` after
    each op.

    ``live`` maps slot -> queued task.  ``pushed`` is the same set as a
    plain list of ``(vruntime, push number, task)`` in push order (a
    requeue moves its task to the end).  ``popped`` is the task the op
    popped, else None.  ``slot`` indexes a fixed pool of tasks so
    removes/requeues target tasks that are actually queued (and pushes
    of a queued slot are skipped, matching the queues' no-double-push
    contract).
    """
    pool = [Task() for _ in range(16)]
    for i, t in enumerate(pool):
        t.weight = 1024
    live: dict[int, Task] = {}  # slot -> task
    pushed: list[tuple[float, int, Task]] = []
    n_pushes = 0

    def note_push(t):
        nonlocal n_pushes
        pushed.append((t.vruntime, n_pushes, t))
        n_pushes += 1

    def drop(t):
        pushed[:] = [e for e in pushed if e[2] is not t]

    for op in ops:
        popped = None
        if op[0] == "push":
            slot = op[1]
            if slot not in live:
                t = pool[slot]
                t.vruntime = op[2]
                t.weight = op[3]
                q.push(t)
                live[slot] = t
                note_push(t)
        elif op[0] == "pop":
            popped = q.pop_min()
            if popped is not None:
                live = {s: t for s, t in live.items() if t is not popped}
                drop(popped)
            else:
                assert not live
        elif op[0] == "remove":
            slot = op[1]
            if slot in live:
                t = live.pop(slot)
                q.remove(t)
                drop(t)
        else:  # requeue with a changed vruntime (the yield path)
            slot = op[1]
            if slot in live:
                t = live[slot]
                t.vruntime = op[2]
                q.requeue(t)
                drop(t)
                note_push(t)
        yield live, list(pushed), popped


class TestRunQueueAggregates:
    @given(ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_cfs_aggregates_match_recompute(self, ops):
        q = CfsRunQueue()
        before: list[tuple[float, int, Task]] = []
        for live, pushed, popped in _apply_ops(q, ops):
            tasks = list(live.values())
            assert q.total_weight() == sum(t.weight for t in tasks)
            assert q.count == len(q) == len(tasks)
            if tasks:
                assert q.max_vruntime() == max(t.vruntime for t in tasks)
            else:
                assert q.max_vruntime() == q.min_vruntime
            # pop order against a scan of the plain list: smallest
            # vruntime, then earliest push among equal vruntimes
            if popped is not None:
                assert popped is min(before, key=lambda e: (e[0], e[1]))[2]
            assert q.tasks() == [e[2] for e in pushed]
            before = pushed

    @given(ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_o1_aggregates_match_recompute(self, ops):
        q = O1RunQueue()
        for live, _, _ in _apply_ops(q, ops):
            tasks = list(live.values())
            assert q.total_weight() == sum(t.weight for t in tasks)
            assert q.count == len(q) == len(tasks)


# memory-intensity transitions: (core index, intensity) toggles the
# core between idle and running a task of that intensity
_mem_ops = st.lists(
    st.tuples(st.integers(0, 7),
              st.floats(min_value=0, max_value=1.0, allow_nan=False)),
    min_size=1,
    max_size=60,
)


class TestMemIntensityIndex:
    """The per-scope (cid, intensity) index equals a full-core scan."""

    def _check(self, machine, ops):
        from repro.system import System

        system = System(machine)
        cores = system.cores
        running: dict[int, Task] = {}  # cid -> current task
        for idx, intensity in ops:
            cid = idx % len(cores)
            core = cores[cid]
            if cid in running:
                core._mem_note_off(running.pop(cid))
            else:
                t = Task()
                t.mem_intensity = intensity
                running[cid] = t
                core._mem_note_on(t)
            # recompute every scope's index from the model
            for scope_key, index in system._mem_scope_busy.items():
                expect = sorted(
                    (c.cid, running[c.cid].mem_intensity)
                    for c in cores
                    if c.cid in running
                    and running[c.cid].mem_intensity > 0.0
                    and (
                        scope_key == -1
                        or c.hw.numa_node == scope_key
                    )
                )
                assert index == expect

    @given(ops=_mem_ops)
    @settings(max_examples=100, deadline=None)
    def test_machine_scope_index(self, ops):
        from repro.topology import presets

        self._check(presets.tigerton(), ops)

    @given(ops=_mem_ops)
    @settings(max_examples=100, deadline=None)
    def test_node_scope_index(self, ops):
        from repro.topology import presets

        self._check(presets.barcelona(), ops)


#: golden run digests captured immediately before the incremental-
#: aggregate / columnar-recorder overhaul (and verified unchanged
#: after): result payload + full trace + engine fingerprint per smoke
GOLDEN_RUN_DIGESTS = {
    "ep-speedup": "4016a7371fbc87ec3c96b1f17824ae7c46f59af9c5347515d03b0b59b3b253ed",
    "balance-interval": "65a397c4115071f6e066f6a875b190896ce2ffec4c9aad6ad5970cd5cbcdcf88",
    "npb-speed": "493a9e3ec671980a1cf514757ac42433204c8760fe5f73064f0561c4f5880481",
    "npb-load": "004e3e9f8b11392943552216a139c6743fb362accae0613f8b50b948235707ea",
    "npb-numa": "e5beaf948eb06f9852093ecef7b7ae5ac5e1b47e364357bdfab4526db46da100",
    "cpu-hog": "974ed50673b3ccabc84fa696c1466991ffec3d8e11b3068abc6e61c4e18b692c",
    "make-share": "8b202e354250be2665f50f661d274572bbc44f459a4d939d3f75eaa76b52620a",
}


class TestScenarioDigestParity:
    """Every scenario smoke reproduces its pre-overhaul run digest.

    Parametrized over every event-dispatch backend: the batched engine
    must hit the same goldens as the heap, which is the digest wall the
    batching fast paths live behind.
    """

    def test_goldens_cover_every_smoke(self):
        from repro.harness.scenarios import scenario_smokes

        assert set(scenario_smokes()) == set(GOLDEN_RUN_DIGESTS)

    @pytest.mark.parametrize("engine", backend_names())
    def test_run_digests_match_goldens(self, engine):
        from dataclasses import replace

        from repro.harness.parallel import run_traced
        from repro.harness.scenarios import scenario_smokes
        from repro.sim.backends import backend_available

        if not backend_available(engine):
            pytest.skip(f"{engine!r} backend unavailable (no C toolchain)")
        drifted = {}
        for name, spec in scenario_smokes().items():
            result, system = run_traced(replace(spec, engine=engine))
            digest = run_digest(result, system.trace, system.engine)
            if digest != GOLDEN_RUN_DIGESTS[name]:
                drifted[name] = digest
        assert not drifted, (
            f"run_digest drift vs the pre-overhaul goldens under the "
            f"{engine!r} backend (determinism regression unless the "
            f"behaviour change was intended): {drifted}"
        )
