"""Generative heap-vs-native parity: the C twin, event by event.

The golden digests pin seven hand-picked scenarios.  This module draws
run specs from a much wider space -- machine preset (UMA, NUMA, SMT),
core count, app shape, barrier wait mode, balancer, a cpu-hog
co-runner, per-core scheduler policy and clock factors, seed -- and
runs each under both engine backends.  It asserts more than equal end
results: an engine observer snapshots the scheduling state at every
dispatched event (each core's running task, queue length and queue
order, ``min_vruntime`` and event generation, the memory-contention
index and the global load epoch), so the C twin of
``CoreSim._on_core_event`` must follow the reference chain through
every intermediate state, not just land on the same digest.  The runtime invariant checker
(INV001-INV006) is installed on every System by ``conftest.py`` and
raises on the first violation.  On a failure, hypothesis shrinks to a
minimal spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import run_digest
from repro.apps.workloads import AppSpec
from repro.harness.experiment import run_app
from repro.harness.scenarios import CorunnerSpec
from repro.sched.runqueue import CfsRunQueue
from repro.sim.backends import backend_available
from repro.topology import presets

pytestmark = pytest.mark.skipif(
    not backend_available("native"),
    reason="native backend unavailable (no C toolchain)",
)

PRESETS = {
    "tigerton": presets.tigerton,
    "barcelona": presets.barcelona,  # NUMA
    "nehalem": presets.nehalem,  # SMT
}


@dataclass(frozen=True)
class Spec:
    machine: str
    cores: int
    app: AppSpec
    balancer: str
    hog_core: int | None
    scheduler: str
    clocks: tuple[float, ...]
    seed: int


@st.composite
def specs(draw) -> Spec:
    machine = draw(st.sampled_from(sorted(PRESETS)))
    cores = draw(st.integers(2, 6))
    threads = draw(st.integers(cores - 1, cores + 3))
    bench = draw(st.sampled_from(["ep.C", "cg.B", "sp.A", "bt.A", "lu.A"]))
    period = None
    if bench == "ep.C":
        # plain EP, or the Section 6.1 modified EP with periodic barriers
        period = draw(st.sampled_from([None, 2_000, 7_000]))
    app = AppSpec(
        bench=bench,
        n_threads=threads,
        wait=draw(st.sampled_from(["spin", "yield", "sleep"])),
        total_compute_us=draw(st.sampled_from([20_000, 60_000])),
        barrier_period_us=period,
    )
    return Spec(
        machine=machine,
        cores=cores,
        app=app,
        balancer=draw(st.sampled_from(["speed", "load", "dwrr", "ule", "pinned"])),
        hog_core=draw(st.one_of(st.none(), st.integers(0, cores - 1))),
        scheduler=draw(st.sampled_from(["cfs", "o1"])),
        clocks=tuple(
            draw(st.lists(st.sampled_from([0.5, 0.8, 1.0, 1.3]),
                          min_size=cores, max_size=cores))
        ),
        seed=draw(st.integers(0, 2**16)),
    )


def _queue_order(rq) -> list:
    """The queued tasks front to back: a CFS queue's sorted entry list
    (so a C insert that disagrees with ``bisect.insort`` shows at the
    dispatch that made it, not at a later pop), the O(1) queue's
    active then expired array."""
    if type(rq) is CfsRunQueue:
        return [entry[2] for entry in rq._queue]
    return rq.tasks()


def _snapshot(system, ev, ids: dict[int, int]) -> tuple:
    """The scheduling state an event is dispatched into.

    Task ids come from a process-wide counter, so the second run of a
    spec sees shifted tids; ``ids`` renumbers them in order of first
    appearance, which is itself part of what must agree.
    """
    return (
        ev.time,
        ev.seq,
        ev.label,
        tuple(
            (
                ids.setdefault(c.current.tid, len(ids)) if c.current is not None else None,
                c.rq.count,
                tuple(ids.setdefault(t.tid, len(ids)) for t in _queue_order(c.rq)),
                c.rq.min_vruntime,
                c._gen,
            )
            for c in system.cores
        ),
        tuple((k, tuple(v)) for k, v in sorted(system._mem_scope_busy.items())),
        system._load_epoch[0],
    )


def _run(spec: Spec, engine: str, on_state) -> str:
    def instrument(system):
        assert system.invariant_checker is not None  # INV001-INV006 armed
        for cid, factor in enumerate(spec.clocks):
            if factor != 1.0:
                system.set_clock_factor(cid, factor)
        ids: dict[int, int] = {}
        system.engine.observers.append(lambda ev: on_state(_snapshot(system, ev, ids)))

    corunners = () if spec.hog_core is None else (CorunnerSpec("cpu-hog", core=spec.hog_core),)
    result, system = run_app(
        PRESETS[spec.machine],
        spec.app,
        balancer=spec.balancer,
        cores=spec.cores,
        seed=spec.seed,
        corunner_factories=corunners,
        scheduler=spec.scheduler,
        instrument=instrument,
        trace=True,
        return_system=True,
        engine=engine,
    )
    return run_digest(result, system.trace, system.engine)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=specs())
def test_heap_and_native_agree_at_every_dispatch(spec):
    # one hash per dispatch keeps a long example's record small; both
    # runs hash in this process, so equal states hash equal
    states: list[int] = []
    heap_digest = _run(spec, "heap", lambda state: states.append(hash(state)))
    step = iter(range(len(states) + 1))

    def follow(state):
        i = next(step)
        assert i < len(states), f"native dispatched more than heap's {len(states)} events"
        assert hash(state) == states[i], (
            f"native left the reference chain at dispatch {i}; native state: {state}"
        )

    native_digest = _run(spec, "native", follow)
    assert next(step) == len(states), "native dispatched fewer events than heap"
    assert native_digest == heap_digest
