"""Property tests: metrics.export serialization is a lossless inverse."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import trace_digest
from repro.metrics.export import (
    result_from_dict,
    result_to_dict,
    results_from_json,
    results_to_json,
    trace_from_dict,
    trace_to_dict,
)
from repro.metrics.results import AppRunResult, RepeatedResult
from repro.metrics.trace import TraceRecorder
from repro.store.keys import canonical_json


@st.composite
def recorders(draw):
    """Recorded histories: overlaps on one core and across cores,
    first placements (``src=None``), forced migrations, and caps small
    enough that some traces truncate."""
    small = st.integers(min_value=0, max_value=12)
    limit = draw(st.integers(min_value=0, max_value=12) | st.just(1_000))
    migration_limit = draw(st.none() | small | st.just(1_000))
    trace = TraceRecorder(limit=limit, migration_limit=migration_limit)
    n_tasks = draw(st.integers(min_value=1, max_value=4))
    n_cores = draw(st.integers(min_value=1, max_value=3))
    name = st.sampled_from(["a", "b", "é\"x", ""])
    tids = st.integers(min_value=1, max_value=n_tasks)
    cores = st.integers(min_value=0, max_value=n_cores - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        start = draw(st.integers(min_value=0, max_value=60))
        trace.record(
            draw(tids), draw(name), draw(cores), start,
            start + draw(st.integers(min_value=-2, max_value=25)),  # <= 0: skipped
            draw(st.sampled_from(["run", "wait"])),
        )
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        trace.record_migration(
            draw(st.integers(min_value=0, max_value=60)), draw(tids), draw(name),
            draw(st.none() | cores), draw(cores), draw(st.booleans()),
            draw(st.sampled_from(["speed.pull", "speed.initial", "linux.cache"])),
        )
    return trace


def reference_rows(trace):
    """The archive form built one record object at a time."""
    return {
        "limit": trace.limit,
        "dropped": trace.dropped,
        "migrations_dropped": trace.migrations_dropped,
        "segments": [
            [s.tid, s.task_name, s.core, s.start, s.end, s.kind]
            for s in trace.segments
        ],
        "migrations": [
            [m.time, m.tid, m.task_name, m.src, m.dst, int(m.forced), m.reason]
            for m in trace.migrations
        ],
    }


@st.composite
def app_run_results(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    us = st.integers(min_value=0, max_value=10**9)
    exec_us = draw(st.lists(st.integers(min_value=1, max_value=10**9),
                            min_size=n, max_size=n))
    compute_us = [draw(st.integers(min_value=0, max_value=e)) for e in exec_us]
    return AppRunResult(
        app_name=draw(st.sampled_from(["ep.C", "cg.B", "bt.A", "is.C"])),
        balancer=draw(st.sampled_from(["speed", "load", "pinned"])),
        n_cores=draw(st.integers(min_value=1, max_value=16)),
        n_threads=n,
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        elapsed_us=draw(st.integers(min_value=1, max_value=10**9)),
        total_work_us=draw(us),
        migrations=draw(st.integers(min_value=0, max_value=10**6)),
        thread_exec_us=exec_us,
        thread_compute_us=compute_us,
        thread_finish_us=draw(st.lists(us, min_size=n, max_size=n)),
        system_migrations=draw(st.integers(min_value=0, max_value=10**6)),
    )


class TestResultRoundTrip:
    @given(result=app_run_results())
    @settings(max_examples=50, deadline=None)
    def test_run_roundtrip_is_identity(self, result):
        back = result_from_dict(result_to_dict(result))
        assert back == result
        assert back.canonical_json() == result.canonical_json()

    @given(runs=st.lists(app_run_results(), min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_repeated_roundtrip_is_identity(self, runs):
        repeated = RepeatedResult(runs=runs)
        back = result_from_dict(result_to_dict(repeated))
        assert isinstance(back, RepeatedResult)
        assert back.runs == runs

    @given(runs=st.lists(app_run_results(), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_json_roundtrip_mixed(self, runs):
        results = [*runs, RepeatedResult(runs=runs)]
        back = results_from_json(results_to_json(results))
        assert back == results

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="type"):
            result_from_dict({"type": "mystery"})
        with pytest.raises(ValueError):
            results_from_json(json.dumps({"not": "a list"}))


class TestTraceRoundTrip:
    def test_trace_roundtrip_verbatim(self):
        from repro.apps.workloads import AppSpec
        from repro.harness.experiment import run_app
        from repro.topology import presets

        _, system = run_app(
            presets.uniform(4),
            AppSpec(bench="ep.C", n_threads=4, total_compute_us=40_000),
            balancer="speed",
            cores=2,
            trace=True,
            return_system=True,
        )
        trace = system.trace
        back = trace_from_dict(trace_to_dict(trace))
        assert back.segments == trace.segments
        assert back.migrations == trace.migrations
        assert back.limit == trace.limit
        assert back.dropped == trace.dropped
        assert back.migrations_dropped == trace.migrations_dropped

    def test_dropped_counters_preserved(self):
        rec = TraceRecorder(limit=2)
        for i in range(5):
            rec.record(tid=i, name=f"t{i}", core=0,
                       start=i * 10, end=i * 10 + 5, kind="exec")
        assert rec.dropped == 3
        back = trace_from_dict(trace_to_dict(rec))
        assert back.dropped == 3
        assert back.truncated

    @given(trace=recorders())
    @settings(max_examples=200, deadline=None)
    def test_archive_bytes_equal_the_per_record_form(self, trace):
        assert canonical_json(trace_to_dict(trace)) == canonical_json(
            reference_rows(trace)
        )

    @given(trace=recorders())
    @settings(max_examples=200, deadline=None)
    def test_reload_keeps_digest_span_and_counters(self, trace):
        back = trace_from_dict(json.loads(canonical_json(trace_to_dict(trace))))
        assert trace_digest(back) == trace_digest(trace)
        assert back.span == trace.span
        assert back.truncated == trace.truncated
        assert back.limit == trace.limit
        assert back.dropped == trace.dropped
        assert back.migrations_dropped == trace.migrations_dropped
        assert back.segments == trace.segments
        assert back.migrations == trace.migrations

    def test_rows_of_the_wrong_width_are_refused(self):
        good = trace_to_dict(TraceRecorder())
        for key, row in (("segments", [1, "a", 0, 0, 5]),
                         ("migrations", [0, 1, "a", None, 1, 0, "r", "x"])):
            with pytest.raises(ValueError, match="fields"):
                trace_from_dict(dict(good, **{key: [row]}))
        # a ragged table is refused even when its first row is well formed
        with pytest.raises(ValueError):
            trace_from_dict(dict(good, segments=[[1, "a", 0, 0, 5, "run"], [1]]))
