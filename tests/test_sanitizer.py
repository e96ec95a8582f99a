"""Schedule sanitizer: fault injection + clean-run silence.

Every SAN rule is demonstrated both ways: a hand-crafted corrupt trace
triggers exactly its code, and a clean run of every shipped scenario
smoke produces zero findings.  The differential determinism legs are
exercised for real (two fresh ``PYTHONHASHSEED`` subprocesses must
digest identically) and in isolation (the comparison helper fires
SAN008 on injected divergent digests).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.differential import (
    compare_digests,
    differential_check,
    scenario_digest,
    subprocess_digest,
)
from repro.analysis.sanitizer import (
    MAX_FINDINGS_PER_RULE,
    SAN_RULES,
    PullPolicy,
    _cite_segment,
    _Collector,
    analyze_trace,
    check_conservation,
    check_overlaps,
    check_pull_policy,
    check_truncation,
    run_digest,
    sanitize_stored,
    sanitize_system,
    trace_digest,
)
from repro.harness.parallel import run_traced
from repro.harness.scenarios import scenario_smokes
from repro.metrics.trace import TraceRecorder, _MigrationsView, _SegmentsView
from tests.test_export_roundtrip import recorders
from repro.sim.backends import backend_available, backend_names
from repro.topology import presets
from repro.topology.machine import DomainLevel

SMOKES = scenario_smokes()


def codes(findings):
    return sorted({f.code for f in findings})


def pull_policy(
    cores=(0, 1),
    tids=(1,),
    interval_us=100_000,
    block_intervals=2.0,
    numa_enabled=True,
    numa_mult=1.0,
):
    return PullPolicy(
        cores=frozenset(cores),
        tids=frozenset(tids),
        interval_us=interval_us,
        block_intervals=block_intervals,
        level_enabled={lvl: True for lvl in DomainLevel} | {DomainLevel.NUMA: numa_enabled},
        level_block_multiplier={lvl: 1.0 for lvl in DomainLevel}
        | {DomainLevel.NUMA: numa_mult},
    )


# ----------------------------------------------------------------------
# fault injection: each rule fires on its crafted corruption, alone
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_san001_migration_race(self):
        trace = TraceRecorder()
        trace.record(1, "t", 0, 0, 100, "compute")
        trace.record(1, "t", 1, 50, 150, "compute")
        found = check_overlaps(trace)
        assert codes(found) == ["SAN001"]
        assert "cores 0 and 1" in found[0].message
        assert len(found[0].citations) == 2

    def test_san002_double_charge(self):
        trace = TraceRecorder()
        trace.record(1, "a", 0, 0, 100, "compute")
        trace.record(2, "b", 0, 50, 150, "compute")
        found = check_overlaps(trace)
        assert codes(found) == ["SAN002"]
        assert "core 0 charged twice" in found[0].message

    def test_adjacent_segments_are_clean(self):
        # back-to-back [0,100) [100,200) on one core and a migration
        # landing exactly at a segment boundary must not alarm
        trace = TraceRecorder()
        trace.record(1, "a", 0, 0, 100, "compute")
        trace.record(2, "b", 0, 100, 200, "compute")
        trace.record(1, "a", 1, 100, 200, "compute")
        assert check_overlaps(trace) == []

    def test_san003_task_drift(self):
        trace = TraceRecorder()
        trace.record(1, "t", 0, 0, 100, "compute")
        found = check_conservation(trace, task_exec_us={1: 150})
        assert codes(found) == ["SAN003"]
        assert "drift -50us" in found[0].message

    def test_san003_unknown_task(self):
        trace = TraceRecorder()
        trace.record(7, "ghost", 0, 0, 100, "compute")
        found = check_conservation(trace, task_exec_us={})
        assert codes(found) == ["SAN003"]
        assert "accounting does not know" in found[0].message

    def test_san004_core_drift(self):
        trace = TraceRecorder()
        trace.record(1, "t", 0, 0, 100, "compute")
        found = check_conservation(trace, core_busy_us={0: 90})
        assert codes(found) == ["SAN004"]
        assert "drift +10us" in found[0].message

    def test_san005_pull_inside_block_window(self):
        trace = TraceRecorder()
        trace.record_migration(0, 1, "t", 0, 1, False, "speed.pull")
        # window is 2.0 * 100_000 = 200_000us; this pull is 100_000 in
        trace.record_migration(100_000, 1, "t", 1, 0, False, "speed.pull")
        found = check_pull_policy(trace, [pull_policy()])
        assert codes(found) == ["SAN005"]
        assert "t=100000" in found[0].message

    def test_san005_silent_outside_window(self):
        trace = TraceRecorder()
        trace.record_migration(0, 1, "t", 0, 1, False, "speed.pull")
        trace.record_migration(200_000, 1, "t", 1, 0, False, "speed.pull")
        assert check_pull_policy(trace, [pull_policy()]) == []

    def test_san005_non_pull_reasons_do_not_open_windows(self):
        trace = TraceRecorder()
        trace.record_migration(0, 1, "t", None, 1, False, "speed.initial")
        trace.record_migration(10, 1, "t", 0, 1, True, "linux.cache")
        trace.record_migration(20, 1, "t", 1, 0, False, "speed.pull")
        assert check_pull_policy(trace, [pull_policy()]) == []

    def test_san006_pull_across_numa_fence(self):
        machine = presets.barcelona()  # sockets {0..3}, {4..7}, ... NUMA
        trace = TraceRecorder()
        trace.record_migration(0, 1, "t", 0, 4, False, "speed.pull")
        policy = pull_policy(cores=(0, 4), numa_enabled=False)
        found = check_pull_policy(trace, [policy], machine=machine)
        assert codes(found) == ["SAN006"]
        assert "NUMA" in found[0].message

    def test_san006_silent_when_numa_enabled(self):
        machine = presets.barcelona()
        trace = TraceRecorder()
        trace.record_migration(0, 1, "t", 0, 4, False, "speed.pull")
        policy = pull_policy(cores=(0, 4), numa_enabled=True)
        assert check_pull_policy(trace, [policy], machine=machine) == []

    def test_numa_block_multiplier_scales_window(self):
        # same-socket window is 200_000; the NUMA multiplier stretches
        # the cross-node source's window to 400_000
        machine = presets.barcelona()
        policy = pull_policy(cores=(0, 1, 4), numa_enabled=True, numa_mult=2.0)
        trace = TraceRecorder()
        trace.record_migration(0, 1, "t", 4, 0, False, "speed.pull")
        # 300_000 > plain window but < scaled window for src=4 (NUMA
        # relative to dst=0), so pulling from 4 again is a violation
        trace.record_migration(300_000, 1, "t", 4, 0, False, "speed.pull")
        found = check_pull_policy(trace, [policy], machine=machine)
        assert codes(found) == ["SAN005"]

    def test_san007_truncated(self):
        trace = TraceRecorder(limit=1)
        trace.record(1, "a", 0, 0, 100, "compute")
        trace.record(2, "b", 1, 0, 100, "compute")
        found = check_truncation(trace)
        assert codes(found) == ["SAN007"]
        assert "1 segments" in found[0].message

    def test_san007_suppresses_conservation(self):
        # an incomplete trace must not produce phantom drift findings
        trace = TraceRecorder(limit=1)
        trace.record(1, "a", 0, 0, 100, "compute")
        trace.record(1, "a", 0, 100, 200, "compute")
        found = analyze_trace(trace, task_exec_us={1: 200}, core_busy_us={0: 200})
        assert codes(found) == ["SAN007"]

    def test_san008_divergent_digests(self):
        found = compare_digests("hashseed", "aaa", "bbb", context="x")
        assert codes(found) == ["SAN008"]
        assert found[0].citations == ("digest A: aaa", "digest B: bbb")
        assert compare_digests("hashseed", "same", "same") == []

    def test_per_rule_cap(self):
        trace = TraceRecorder()
        for i in range(2 * MAX_FINDINGS_PER_RULE):
            trace.record(i, "t", 0, 0, 100, "compute")
        found = check_overlaps(trace)
        assert len(found) == MAX_FINDINGS_PER_RULE
        assert "suppressed" in found[-1].message

    def test_every_rule_has_catalogue_entry(self):
        assert sorted(SAN_RULES) == [f"SAN00{i}" for i in range(1, 9)]


# ----------------------------------------------------------------------
# columnar checks == the per-Segment reference
# ----------------------------------------------------------------------
def _reference_pairs(segments):
    """The per-Segment overlap sweep the columnar SAN001/002 replaced."""
    ordered = sorted(segments, key=lambda s: (s.start, s.end))
    reach = None
    for s in ordered:
        if reach is not None and s.start < reach.end:
            yield reach, s
        if reach is None or s.end > reach.end:
            reach = s


def reference_overlaps(trace, context=""):
    out = _Collector(context)
    by_tid, by_core = {}, {}
    for s in trace.segments:
        by_tid.setdefault(s.tid, []).append(s)
        by_core.setdefault(s.core, []).append(s)
    for tid in sorted(by_tid):
        for a, b in _reference_pairs(by_tid[tid]):
            if a.core == b.core:
                continue
            out.emit(
                "SAN001",
                f"task {tid} ({b.task_name}) charged on cores {a.core} and "
                f"{b.core} in overlapping intervals "
                f"[{a.start},{a.end}) and [{b.start},{b.end})",
                [_cite_segment(a), _cite_segment(b)],
            )
    for core in sorted(by_core):
        for a, b in _reference_pairs(by_core[core]):
            out.emit(
                "SAN002",
                f"core {core} charged twice over [{b.start},{min(a.end, b.end)}): "
                f"tasks {a.tid} ({a.task_name}) and {b.tid} ({b.task_name})",
                [_cite_segment(a), _cite_segment(b)],
            )
    return out.findings


def reference_conservation(trace, task_exec_us=None, core_busy_us=None,
                           task_names=None, context=""):
    """The per-Segment SAN003/004 sums the columnar ones replaced."""
    out = _Collector(context)
    if trace.truncated:
        return out.findings
    names = task_names or {}
    traced_exec, traced_busy = {}, {}
    for s in trace.segments:
        traced_exec[s.tid] = traced_exec.get(s.tid, 0) + s.duration
        traced_busy[s.core] = traced_busy.get(s.core, 0) + s.duration
    if task_exec_us is not None:
        for tid in sorted(set(traced_exec) | set(task_exec_us)):
            got = traced_exec.get(tid, 0)
            want = task_exec_us.get(tid)
            if want is None:
                out.emit("SAN003", f"trace charges {got}us to task {tid} "
                         f"({names.get(tid, '?')}) which the accounting does not know")
            elif got != want:
                out.emit("SAN003", f"task {tid} ({names.get(tid, '?')}): trace "
                         f"segments sum to t_exec={got}us but the accounting says "
                         f"{want}us (drift {got - want:+d}us)")
    if core_busy_us is not None:
        for cid in sorted(set(traced_busy) | set(core_busy_us)):
            got = traced_busy.get(cid, 0)
            want = core_busy_us.get(cid, 0)
            if got != want:
                out.emit("SAN004", f"core {cid}: trace segments sum to busy={got}us "
                         f"but the accounting says {want}us (drift {got - want:+d}us)")
    return out.findings


@st.composite
def accounting(draw, trace):
    """Per-task and per-core accounting near the trace's own sums: some
    entries exact, some drifted, some missing, some unknown to the trace."""
    def near(sums, extra_key):
        if draw(st.booleans()):
            return None
        out = {}
        for key, total in sorted(sums.items()):
            if draw(st.integers(0, 4)):
                out[key] = total + draw(st.sampled_from([0, 0, 0, 1, -7]))
        if draw(st.booleans()):
            out[extra_key] = draw(st.integers(0, 50))
        return out

    exec_sums, busy_sums = {}, {}
    for s in trace.segments:
        exec_sums[s.tid] = exec_sums.get(s.tid, 0) + s.duration
        busy_sums[s.core] = busy_sums.get(s.core, 0) + s.duration
    names = {tid: f"task{tid}" for tid in exec_sums if draw(st.booleans())}
    return near(exec_sums, 99), near(busy_sums, 9), names


class TestColumnarChecksMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(trace=recorders())
    def test_overlaps(self, trace):
        assert check_overlaps(trace, "ctx") == reference_overlaps(trace, "ctx")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), trace=recorders())
    def test_conservation(self, data, trace):
        task_exec, core_busy, names = data.draw(accounting(trace))
        assert check_conservation(
            trace, task_exec, core_busy, names, "ctx"
        ) == reference_conservation(trace, task_exec, core_busy, names, "ctx")

    def test_overlap_cap_and_citations_match(self):
        # dense overlaps past the per-rule cap, on one core and across
        # cores, with ties in (start, end) resolved in recorded order
        trace = TraceRecorder()
        for i in range(3 * MAX_FINDINGS_PER_RULE):
            trace.record(i % 5, f"t{i % 5}", i % 3, i % 4, 10 + i % 7, "run")
        found = check_overlaps(trace)
        assert found == reference_overlaps(trace)
        assert {f.code for f in found} == {"SAN001", "SAN002"}

    def test_sanitize_stored_builds_no_record_object(self, tmp_path, monkeypatch):
        from repro.store import ResultStore
        from tests.test_store import _spec, _traced

        store = ResultStore(tmp_path / "s")
        spec = _spec()
        result, trace = _traced(spec)
        digest = store.put(spec, result, trace=trace)

        def refuse(self, i):
            raise AssertionError("a clean stored trace built a record object")

        monkeypatch.setattr(_SegmentsView, "_materialize", refuse)
        monkeypatch.setattr(_MigrationsView, "_materialize", refuse)
        assert sanitize_stored(store, digest) == []


class TestSanitizeStored:
    """The stored-trace entry point reads and verifies its entry once."""

    @pytest.fixture
    def stored(self, tmp_path):
        from repro.store import ResultStore
        from tests.test_store import _spec, _traced

        store = ResultStore(tmp_path / "s")
        spec = _spec()
        result, trace = _traced(spec)
        return store, store.put(spec, result, trace=trace)

    def test_one_entry_read_per_call(self, stored, monkeypatch):
        from repro.store import store as store_module

        store, digest = stored
        reads = []

        def counting(path, *args, **kwargs):
            if str(path).endswith("entry.json"):
                reads.append(path)
            return open(path, *args, **kwargs)

        # the store opens entries through its module's ``open``
        monkeypatch.setattr(store_module, "open", counting, raising=False)
        assert sanitize_stored(store, digest) == []
        assert len(reads) == 1

    def test_absent_and_traceless_digests_raise_value_error(self, stored):
        from tests.test_store import _spec, _traced

        store, _ = stored
        with pytest.raises(ValueError, match="no store entry"):
            sanitize_stored(store, "0" * 64)
        spec = _spec(seed=1)
        bare = store.put(spec, _traced(spec)[0])
        with pytest.raises(ValueError, match="without a trace"):
            sanitize_stored(store, bare)

    def test_a_result_that_does_not_match_its_digest_is_refused(self, stored):
        import json

        from repro.store import ResultStore, StoreIntegrityError
        from repro.store.keys import canonical_json

        store, digest = stored
        path = store._object_dir(digest) / "entry.json"
        doc = json.loads(path.read_text())
        doc["result"]["elapsed_us"] += 1
        # a self-consistent entry whose result no longer has its digest
        doc["integrity"] = ResultStore._integrity_of(doc)
        path.write_text(canonical_json(doc))
        with pytest.raises(StoreIntegrityError, match="result digest"):
            sanitize_stored(store, digest)


# ----------------------------------------------------------------------
# clean runs: every shipped scenario sanitizes silently
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SMOKES))
def test_clean_scenarios_have_zero_findings(name):
    result, system = run_traced(SMOKES[name])
    findings = sanitize_system(system, result=result, context=name)
    assert findings == []
    # the run actually recorded history worth auditing
    assert system.trace.segments
    assert system.trace.migrations


def test_sanitize_requires_trace():
    result, system = run_traced(SMOKES["balance-interval"])
    system.trace = None
    with pytest.raises(ValueError, match="trace"):
        sanitize_system(system)


def test_tampered_result_is_caught():
    result, system = run_traced(SMOKES["balance-interval"])
    result.thread_exec_us[0] += 1
    findings = sanitize_system(system, result=result)
    assert codes(findings) == ["SAN003"]


def test_tampered_core_accounting_is_caught():
    result, system = run_traced(SMOKES["balance-interval"])
    system.cores[0].stats.busy_us += 7
    findings = sanitize_system(system, result=result)
    assert "SAN004" in codes(findings)


# ----------------------------------------------------------------------
# canonical digests
# ----------------------------------------------------------------------
def test_trace_digest_is_tid_canonical():
    a, b = TraceRecorder(), TraceRecorder()
    for base, t in ((0, a), (1000, b)):  # same history, shifted tid space
        t.record(base + 1, "x", 0, 0, 100, "compute")
        t.record(base + 2, "y", 1, 0, 100, "compute")
        t.record_migration(100, base + 1, "x", 0, 1, False, "speed.pull")
    assert trace_digest(a) == trace_digest(b)


def test_trace_digest_sees_order_and_content():
    a, b, c = TraceRecorder(), TraceRecorder(), TraceRecorder()
    a.record(1, "x", 0, 0, 100, "compute")
    a.record(2, "y", 1, 0, 100, "compute")
    b.record(2, "y", 1, 0, 100, "compute")  # same segments, other order
    b.record(1, "x", 0, 0, 100, "compute")
    c.record(1, "x", 0, 0, 101, "compute")  # one boundary differs
    c.record(2, "y", 1, 0, 100, "compute")
    assert len({trace_digest(a), trace_digest(b), trace_digest(c)}) == 3


def test_run_digest_folds_all_parts():
    result, system = run_traced(SMOKES["balance-interval"])
    full = run_digest(result, system.trace, system.engine)
    assert full == run_digest(result, system.trace, system.engine)
    assert full != run_digest(result, system.trace)  # engine part matters
    assert full != run_digest(result)


def test_rerun_digests_identical_and_seed_sensitive():
    assert scenario_digest("balance-interval", seed=0) == scenario_digest(
        "balance-interval", seed=0
    )
    assert scenario_digest("balance-interval", seed=0) != scenario_digest(
        "balance-interval", seed=1
    )


# ----------------------------------------------------------------------
# differential determinism
# ----------------------------------------------------------------------
def test_hashseed_subprocess_digests_agree():
    # two fresh interpreters under different hash randomization must
    # reproduce the run bit-identically -- and match this process too
    a = subprocess_digest("balance-interval", hashseed=1)
    b = subprocess_digest("balance-interval", hashseed=2)
    assert a == b
    assert a == scenario_digest("balance-interval")


def test_observer_leg_in_process():
    assert differential_check("balance-interval", legs=("observers",)) == []


@pytest.mark.parametrize("name", ["balance-interval", "cpu-hog", "make-share"])
def test_workers_leg_serial_vs_parallel(name):
    assert differential_check(name, legs=("workers",)) == []


def test_workers_leg_catches_a_perturbed_worker_run(monkeypatch):
    """One run perturbed on the two-worker side is a SAN008 finding,
    co-runner smokes included."""
    import repro.analysis.differential as differential

    real = differential.map_specs

    def perturbed(specs, workers=1):
        runs = real(specs, workers=workers)
        if workers == 2:
            runs[1].elapsed_us += 1
        return runs

    monkeypatch.setattr(differential, "map_specs", perturbed)
    findings = differential_check("cpu-hog", legs=("workers",))
    assert codes(findings) == ["SAN008"]
    assert "'workers' leg" in findings[0].message


@pytest.mark.skipif(not backend_available("native"),
                    reason="native backend unavailable (no C toolchain)")
def test_engines_leg_heap_vs_native():
    # the compiled backend must reproduce the heap's run digest bit for
    # bit (events, trace and engine fingerprint)
    assert differential_check("balance-interval", legs=("engines",)) == []


def test_scenario_digest_engine_parity_and_perturbation():
    engines = [n for n in backend_names() if backend_available(n)]
    heap = scenario_digest("balance-interval", engine="heap")
    for other in engines[1:]:
        assert heap == scenario_digest("balance-interval", engine=other)
    # the digest still discriminates real behaviour changes
    assert heap != scenario_digest("balance-interval", seed=1, engine=engines[-1])


def test_unknown_leg_rejected():
    with pytest.raises(ValueError, match="unknown differential legs"):
        differential_check("balance-interval", legs=("observers", "nope"))
