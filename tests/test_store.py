"""Tests for the content-addressed experiment store (repro.store)."""

import gzip
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import run_digest
from repro.apps.workloads import AppSpec
from repro.core.speed_balancer import SpeedBalancerConfig
from repro.harness.parallel import RunSpec, run_spec
from repro.sim.backends import backend_names
from repro.metrics.export import trace_to_dict
from repro.store import (
    STORE_SCHEMA,
    ResultStore,
    StoreError,
    StoreIntegrityError,
    UnstorableSpecError,
    canonical_json,
    canonical_value,
    digest_of,
    function_ref,
    spec_digest,
    spec_key,
    sweep_cell_key,
)
from repro.topology import presets
from repro.topology.machine import DomainLevel


def _spec(seed=0, balancer="speed", **params):
    app = AppSpec(bench="ep.C", n_threads=4, total_compute_us=40_000)
    return RunSpec.make(
        "tigerton", app, balancer=balancer, cores=2, seed=seed, **params
    )


def _traced(spec):
    """Run a spec in-process with tracing; (result, trace)."""
    from repro.harness.experiment import run_app
    from repro.harness.parallel import resolve_machine

    result, system = run_app(
        resolve_machine(spec.machine), spec.app, balancer=spec.balancer,
        cores=list(range(spec.cores)), seed=spec.seed, trace=True,
        return_system=True,
    )
    return result, system.trace


def _module_runner(a, b):
    """Module-level sweep runner (addressable by function_ref)."""
    return a * b


class TestCanonicalKeys:
    def test_digest_is_hex_sha256(self):
        d = spec_digest(_spec())
        assert len(d) == 64
        assert all(c in "0123456789abcdef" for c in d)

    def test_digest_stable_across_calls(self):
        assert spec_digest(_spec()) == spec_digest(_spec())

    def test_digest_sensitive_to_every_field(self):
        base = spec_digest(_spec())
        assert spec_digest(_spec(seed=1)) != base
        assert spec_digest(_spec(balancer="load")) != base
        other_app = RunSpec.make(
            "tigerton",
            AppSpec(bench="cg.B", n_threads=4, total_compute_us=40_000),
            balancer="speed", cores=2, seed=0,
        )
        assert spec_digest(other_app) != base

    def test_params_order_canonical(self):
        from repro.sched.cfs import CfsParams

        a = _spec(speed_config=SpeedBalancerConfig(), cfs_params=CfsParams())
        b = _spec(cfs_params=CfsParams(), speed_config=SpeedBalancerConfig())
        assert spec_digest(a) == spec_digest(b)

    def test_dataclass_canonical_form(self):
        value = canonical_value(AppSpec(bench="ep.C", n_threads=2))
        assert value["__dataclass__"].endswith(":AppSpec")
        assert value["fields"]["bench"] == "ep.C"

    def test_enum_keyed_dict_canonicalizes(self):
        # SpeedBalancerConfig.level_enabled is keyed by DomainLevel (an
        # IntEnum, so members canonicalize as their stable int values);
        # the non-string keys force the sorted __dict__ pair-list form
        value = canonical_value(SpeedBalancerConfig())
        text = canonical_json(value)
        assert '"__dict__"' in text
        pairs = value["fields"]["level_enabled"]["__dict__"]
        assert pairs == sorted(pairs)
        assert digest_of(value) == digest_of(canonical_value(SpeedBalancerConfig()))

    def test_plain_enum_member_canonicalizes_by_name(self):
        import enum

        class Mode(enum.Enum):
            A = "a"
            B = "b"

        # local enums cannot be resolved back -- rejected, not mis-keyed
        with pytest.raises(UnstorableSpecError):
            canonical_value(Mode.A)
        from repro.sched.task import WaitMode

        value = canonical_value(WaitMode.YIELD)
        assert value == {"__enum__": "repro.sched.task:WaitMode.YIELD"}

    def test_lambda_app_rejected_before_any_run(self):
        spec = RunSpec.make(
            "tigerton", lambda system: None, balancer="speed", cores=2, seed=0,
        )
        with pytest.raises(UnstorableSpecError):
            spec_key(spec)

    def test_function_ref_roundtrip_and_rejection(self):
        ref = function_ref(_module_runner)
        assert ref.endswith(":_module_runner")
        with pytest.raises(UnstorableSpecError):
            function_ref(lambda: None)

        def local():
            pass

        with pytest.raises(UnstorableSpecError):
            function_ref(local)

    def test_sweep_cell_key_identifies_runner_and_assignment(self):
        k1 = sweep_cell_key(_module_runner, {"a": 1, "b": 2})
        k2 = sweep_cell_key(_module_runner, {"b": 2, "a": 1})
        assert digest_of(k1) == digest_of(k2)
        assert digest_of(k1) != digest_of(
            sweep_cell_key(_module_runner, {"a": 1, "b": 3})
        )


def _parent_spec_digest(spec):
    """``spec_digest`` as the previous build computed it: a key with the
    raw balancer, seed and engine, canonicalized a second time."""
    return digest_of({
        "kind": "run",
        "machine": canonical_value(spec.machine),
        "app": canonical_value(spec.app),
        "balancer": spec.balancer,
        "cores": canonical_value(spec.cores),
        "seed": spec.seed,
        "engine": spec.engine,
        "params": {name: canonical_value(v) for name, v in spec.params},
    })


_PARAM_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
    | st.sampled_from(list(DomainLevel)) | st.just(presets.tigerton)
    | st.builds(SpeedBalancerConfig, interval_us=st.integers(1_000, 10**6)),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    | st.dictionaries(st.sampled_from(list(DomainLevel)), inner, max_size=2),
    max_leaves=8,
)
SPECS = st.builds(
    lambda kw, params: RunSpec.make(**kw, **params),
    st.fixed_dictionaries({
        "machine": st.sampled_from(["tigerton", "barcelona", presets.nehalem]),
        "app": st.builds(
            AppSpec,
            bench=st.sampled_from(["ep.C", "cg.B", "ft.B"]),
            n_threads=st.integers(1, 32),
            wait=st.sampled_from(["yield", "sleep"]),
            total_compute_us=st.integers(1, 10**7),
            barrier_period_us=st.none() | st.integers(1, 10**5),
        ),
        "balancer": st.sampled_from(["speed", "load", "pinned", "ule"]),
        "cores": st.none() | st.integers(1, 16) | st.lists(st.integers(0, 15), max_size=4),
        "seed": st.integers(0, 2**40),
        "engine": st.sampled_from(backend_names()),
    }),
    st.dictionaries(st.from_regex(r"p_[a-z]{1,4}", fullmatch=True), _PARAM_VALUES,
                    max_size=3),
)

#: spec digests the previous build wrote, for specs spanning every key
#: form: a preset name, a factory function, a core list, a dataclass
#: param, an enum-keyed dict and a list with a float and a null
PINNED = [
    (lambda: RunSpec.make(
        "tigerton", AppSpec(bench="ep.C", n_threads=4, total_compute_us=40_000),
        balancer="speed", cores=2, seed=0),
     "a559f22f33a01e3de9091bb74a49f83c4599725eaf0517e7ac52ff2b17c3f6d3"),
    (lambda: RunSpec.make(
        presets.barcelona, AppSpec(bench="cg.B", n_threads=8, wait="sleep",
                                   total_compute_us=100_000),
        balancer="load", cores=[0, 1, 4, 5], seed=7, engine="native",
        speed_config=SpeedBalancerConfig(interval_us=50_000)),
     "0bc1b5910eeffbf2708352c70ddfeabe1c510661fe91e6b8925fc5139d74c441"),
    (lambda: RunSpec.make(
        "nehalem", AppSpec(barrier_period_us=10_000), balancer="pinned", seed=3,
        trace=True, levels={DomainLevel.NUMA: 2.5, DomainLevel.SMT: 1},
        weights=[1, 2.5, None]),
     "fd762b853f5ea371a48273ded89e3f63c25ccb09ec1fab1fa9758210747209cb"),
]


class TestSpecDigest:
    """``spec_key`` is canonical as built, so ``spec_digest`` hashes it
    without a second walk -- and names every spec as before."""

    @settings(max_examples=200, deadline=None)
    @given(spec=SPECS)
    def test_digest_is_the_digest_of_the_key(self, spec):
        key = spec_key(spec)
        assert canonical_value(key) == key
        assert spec_digest(spec) == digest_of(key) == _parent_spec_digest(spec)

    @pytest.mark.parametrize("make, digest", PINNED)
    def test_digests_the_previous_build_wrote(self, make, digest):
        assert spec_digest(make()) == digest

    @pytest.mark.parametrize("field, value", [
        ("balancer", lambda: None), ("seed", float("inf")),
        ("engine", object()), ("params", (("p", lambda: None),)),
    ])
    def test_unstorable_field_raises(self, field, value):
        spec = _spec()
        object.__setattr__(spec, field, value)  # past RunSpec's own checks
        with pytest.raises(UnstorableSpecError):
            spec_key(spec)
        with pytest.raises(UnstorableSpecError):
            spec_digest(spec)

    def test_store_written_under_the_previous_key_still_hits(self, tmp_path):
        # an entry filed the way the previous build filed it: its key
        # object, with the digest computed the previous way
        from repro.service import run_specs_cached

        store = ResultStore(tmp_path / "s")
        spec, _ = PINNED[0]
        spec = spec()
        old_key = json.loads(canonical_json(canonical_value(spec_key(spec))))
        result = run_spec(spec)
        assert store.put(old_key, result) == _parent_spec_digest(spec)
        assert store.get(spec).digest == spec_digest(spec)
        (again,) = run_specs_cached([spec], store=str(tmp_path / "s"))
        assert run_digest(again) == run_digest(result)
        assert len(store.digests()) == 1


class TestStoreRoundTrip:
    def test_put_get_parity(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        fresh = run_spec(spec)
        digest = store.put(spec, fresh)
        assert digest == spec_digest(spec)
        assert store.contains(spec)
        entry = store.get(digest)
        assert entry is not None
        assert entry.kind == "run"
        # the read-back result is byte-identical to the fresh one
        assert run_digest(entry.result) == run_digest(fresh)

    def test_get_absent_returns_none(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        assert store.get("0" * 64) is None
        assert not store.contains(_spec())

    def test_duplicate_put_is_noop(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        result = run_spec(spec)
        store.put(spec, result)
        store.put(spec, result)
        assert len(store.entries()) == 1
        assert store.stats().next_seq == 1

    def test_trace_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        result, trace = _traced(spec)
        digest = store.put(spec, result, trace=trace)
        entry = store.get(digest)
        assert entry.has_trace
        loaded = store.load_trace(digest)
        assert loaded.segments == trace.segments
        assert loaded.migrations == trace.migrations
        assert loaded.limit == trace.limit

    def test_entry_file_is_canonical_json(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        result, trace = _traced(spec)
        digest = store.put(spec, result, trace=trace)
        raw = (store._object_dir(digest) / "entry.json").read_text()
        assert raw == canonical_json(json.loads(raw))

    def test_indented_entry_from_an_older_build_still_verifies(self, tmp_path):
        # the integrity digest covers the parsed document, so the
        # indented layout older builds wrote reads and verifies the same
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        result, trace = _traced(spec)
        digest = store.put(spec, result, trace=trace)
        path = store._object_dir(digest) / "entry.json"
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2,
                                   sort_keys=True) + "\n")
        entry = store.get(digest)
        assert run_digest(entry.result) == run_digest(result)
        assert store.load_trace(digest).segments == trace.segments
        assert store.verify() == []

    def test_trace_archive_bytes_are_the_canonical_rows(self, tmp_path):
        # trace_sha256 is over the uncompressed canonical JSON, so the
        # gzip level does not change what an entry records
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        result, trace = _traced(spec)
        digest = store.put(spec, result, trace=trace)
        raw = gzip.decompress(
            (store._object_dir(digest) / "trace.json.gz").read_bytes()
        )
        assert raw == canonical_json(trace_to_dict(trace)).encode()
        doc = json.loads((store._object_dir(digest) / "entry.json").read_text())
        assert doc["trace_sha256"] == hashlib.sha256(raw).hexdigest()

    def test_value_kind_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = sweep_cell_key(_module_runner, {"a": 3, "b": 4})
        digest = store.put(key, 12)
        entry = store.get(digest)
        assert entry.kind == "value"
        assert entry.payload == 12

    def test_delete(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))
        assert store.delete(digest)
        assert store.get(digest) is None
        assert not store.delete(digest)


class TestReadPath:
    """``get``, ``get_with_trace`` and ``load_trace`` open ``entry.json``
    once, with no stat first; absent, corrupt and unreadable entries
    each keep their outcome."""

    @pytest.fixture
    def stored(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        result, trace = _traced(spec)
        return store, store.put(spec, result, trace=trace)

    @staticmethod
    def _entry(store, digest):
        return store._object_dir(digest) / "entry.json"

    def test_each_read_opens_the_entry_once_without_a_stat(self, stored, monkeypatch):
        import pathlib

        from repro.store import store as store_module

        store, digest = stored
        opened = []

        def counting(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        def no_stat(self):
            raise AssertionError(f"stat of {self}")

        monkeypatch.setattr(store_module, "open", counting, raising=False)
        monkeypatch.setattr(pathlib.Path, "is_file", no_stat)
        store.get(digest)
        store.get_with_trace(digest)
        store.load_trace(digest)
        assert opened == [str(self._entry(store, digest))] * 3

    def test_absent_entry(self, stored):
        store, digest = stored
        other = "0" * 64
        assert store.get(other) is None
        assert store.get_with_trace(other) is None
        with pytest.raises(StoreError, match="no store entry"):
            store.load_trace(other)
        # a directory where entry.json should be is absent too
        path = self._entry(store, digest)
        path.unlink()
        path.mkdir()
        assert store.get(digest) is None
        assert store.get_with_trace(digest) is None
        with pytest.raises(StoreError, match="no store entry"):
            store.load_trace(digest)

    def test_corrupt_entry(self, stored):
        store, digest = stored
        self._entry(store, digest).write_bytes(b'{"integrity": "\xff\xfe"}')
        for read in (store.get, store.get_with_trace, store.load_trace):
            with pytest.raises(StoreIntegrityError, match="not valid UTF-8"):
                read(digest)
        assert store.lookup(digest) is None  # a miss, and deleted
        assert not store.contains(digest)

    def test_unreadable_entry(self, stored, monkeypatch):
        from repro.store import store as store_module

        store, digest = stored

        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(store_module, "open", denied, raising=False)
        for read in (store.get, store.get_with_trace, store.load_trace,
                     store.lookup):
            with pytest.raises(PermissionError):
                read(digest)
        monkeypatch.undo()
        assert store.contains(digest)  # never deleted for a read error
        assert store.get(digest).digest == digest


class TestCorruptionDetection:
    def _corrupt(self, store, digest, filename="entry.json"):
        path = store._object_dir(digest) / filename
        data = bytearray(path.read_bytes())
        # flip one byte in the middle of the payload
        i = len(data) // 2
        data[i] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_flipped_entry_byte_detected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))
        self._corrupt(store, digest)
        with pytest.raises(StoreIntegrityError):
            store.get(digest)

    def test_flipped_trace_byte_detected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        result, trace = _traced(spec)
        digest = store.put(spec, result, trace=trace)
        raw = bytearray(gzip.decompress(
            (store._object_dir(digest) / "trace.json.gz").read_bytes()
        ))
        raw[len(raw) // 2] ^= 0xFF
        (store._object_dir(digest) / "trace.json.gz").write_bytes(
            gzip.compress(bytes(raw), mtime=0)
        )
        with pytest.raises(StoreIntegrityError):
            store.load_trace(digest)

    def test_lookup_reads_corrupt_entry_as_deleted_miss(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))
        assert store.lookup(digest).digest == digest
        self._corrupt(store, digest)
        assert store.lookup(digest) is None
        assert not store.contains(digest) and digest not in store.digests()

    def test_lookup_keeps_entry_on_other_read_errors(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))

        def denied(self, digest_or_spec):
            raise PermissionError("read denied")

        monkeypatch.setattr(ResultStore, "get", denied)
        with pytest.raises(PermissionError):
            store.lookup(digest)
        assert store.contains(digest)

    def test_wrong_directory_detected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))
        # file the valid entry under a different digest
        other = "f" * 64
        src = store._object_dir(digest)
        dst = store._object_dir(other)
        dst.parent.mkdir(parents=True, exist_ok=True)
        src.rename(dst)
        with pytest.raises(StoreIntegrityError, match="filed under"):
            store.get(other)

    def test_verify_reports_corruption(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))
        assert store.verify() == []
        self._corrupt(store, digest)
        findings = store.verify()
        assert findings and "corrupt" in findings[0]

    def test_gc_removes_corruption(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        a, b = _spec(seed=0), _spec(seed=1)
        da = store.put(a, run_spec(a))
        store.put(b, run_spec(b))
        self._corrupt(store, da)
        report = store.gc()
        assert report.removed_corrupt == 1
        assert report.kept == 1
        assert store.verify() == []


    def test_verify_reports_deleted_entry_file(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))
        (store._object_dir(digest) / "entry.json").unlink()
        findings = store.verify()
        assert len(findings) == 1
        assert findings[0].startswith(f"corrupt {digest[:12]}")
        report = store.gc()
        assert report.removed_corrupt == 1 and report.kept == 0
        assert store.verify() == []

    def test_entry_file_replaced_by_directory(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        a, b = _spec(seed=0), _spec(seed=1)
        da = store.put(a, run_spec(a))
        db = store.put(b, run_spec(b))
        entry = store._object_dir(da) / "entry.json"
        entry.unlink()
        (entry / "nested").mkdir(parents=True)
        findings = store.verify()
        assert len(findings) == 1
        assert findings[0].startswith(f"corrupt {da[:12]}")
        report = store.gc()
        assert report.removed_corrupt == 1 and report.kept == 1
        assert not store._object_dir(da).exists()
        assert store.digests() == [db]
        assert store.verify() == []

    @pytest.mark.parametrize("damage", ["deleted", "directory"])
    def test_resubmit_replaces_object_without_entry_file(self, tmp_path, damage):
        """An object with no readable entry.json reads as a miss; the
        recompute's put must replace it, or every resubmit re-runs."""
        from repro.service import JobService

        store = ResultStore(tmp_path / "s")
        spec = _spec()
        JobService(store).submit([spec])
        entry = store._object_dir(spec_digest(spec)) / "entry.json"
        entry.unlink()
        if damage == "directory":
            entry.mkdir()
        executed = []
        for _ in range(2):
            service = JobService(store)
            (result,) = service.submit([spec])
            executed.append(service.executed)
        assert executed == [1, 0]
        assert run_digest(result) == run_digest(run_spec(spec))
        assert store.verify() == []


class TestMaintenance:
    def test_stats(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        result, trace = _traced(spec)
        store.put(spec, result, trace=trace)
        other = _spec(seed=1)
        store.put(other, run_spec(other))
        stats = store.stats()
        assert stats.entries == 2
        assert stats.traced == 1
        assert stats.total_bytes > 0

    def test_gc_evicts_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digests = []
        for seed in range(3):
            spec = _spec(seed=seed)
            digests.append(store.put(spec, run_spec(spec)))
        report = store.gc(max_entries=2)
        assert report.removed_evicted == 1
        assert store.get(digests[0]) is None  # oldest went
        assert store.get(digests[1]) is not None
        assert store.get(digests[2]) is not None

    def test_index_is_rebuildable(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))
        # drop the entry's log line, as if its writer died between the
        # rename and the append
        log = store.root / "index.log"
        log.write_bytes(log.read_bytes().splitlines(keepends=True)[0])
        assert store.entries() == []
        # reads go to the objects; gc adopts the orphan back into the index
        assert store.get(digest) is not None
        report = store.gc()
        assert report.adopted == 1
        assert [e["digest"] for e in store.entries()] == [digest]

    def test_torn_index_rebuilds_transparently(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        digest = store.put(spec, run_spec(spec))
        (store.root / "index.log").write_text("{ not json")
        # the log is only an accelerator: reads rebuild it in memory
        assert [e["digest"] for e in store.entries()] == [digest]
        assert store.verify() == []

    def test_future_index_schema_refused(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        store.put(spec, run_spec(spec))
        (store.root / "index.log").write_text(json.dumps({"schema": 999}) + "\n")
        with pytest.raises(StoreError, match="schema"):
            store.entries()
        with pytest.raises(StoreError, match="schema"):
            store.put({"kind": "t", "i": 0}, 0)


def _put_values(store, n, start=0):
    """File ``n`` small value entries; their digests, oldest first."""
    return [store.put({"kind": "t", "i": i}, i) for i in range(start, start + n)]


def _log_lines(store):
    return (store.root / "index.log").read_bytes().splitlines()


def _writer(root, start, n):
    """One concurrent writer process: ``n`` puts into one store root."""
    _put_values(ResultStore(root), n, start=start)


class TestIndexLog:
    def test_each_put_appends_one_line_in_place(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        _put_values(store, 1)
        inode = (store.root / "index.log").stat().st_ino
        digests = _put_values(store, 9, start=1)
        lines = _log_lines(store)
        assert len(lines) == 1 + 10
        assert json.loads(lines[0]) == {"schema": STORE_SCHEMA, "next_seq": 0}
        assert [json.loads(x)[:2] for x in lines[2:]] == [
            [seq, d] for seq, d in enumerate(digests, start=1)
        ]
        # never rewritten: the same file grew
        assert (store.root / "index.log").stat().st_ino == inode

    def test_torn_tail_line_is_ignored_and_cut_before_the_next_put(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        first = _put_values(store, 2)
        with open(store.root / "index.log", "ab") as f:
            f.write(b'[2,"' + b"ab" * 20)  # a writer killed mid-line
        assert store.digests() == first
        (third,) = _put_values(store, 1, start=2)
        assert store.digests() == [*first, third]
        assert store.get(third).seq == 2
        lines = _log_lines(store)
        assert len(lines) == 1 + 3
        assert [json.loads(x)[1] for x in lines[1:]] == [*first, third]
        assert store.verify() == []

    def test_garbage_line_mid_log_rebuilds_from_objects(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digests = _put_values(store, 3)
        lines = _log_lines(store)
        lines.insert(2, b"garbage")
        (store.root / "index.log").write_bytes(b"\n".join(lines) + b"\n")
        assert store.digests() == digests
        assert [e["seq"] for e in store.entries()] == [0, 1, 2]
        (finding,) = store.verify()
        assert "index.log is damaged before its last line" in finding
        # a writer reads only the header and the last line: puts go on,
        # the damage stays until gc rewrites the log
        digests += _put_values(store, 1, start=3)
        assert store.digests() == digests
        assert b"garbage" in (store.root / "index.log").read_bytes()
        assert len(store.verify()) == 1
        store.gc()
        assert b"garbage" not in (store.root / "index.log").read_bytes()
        assert store.digests() == digests
        assert store.verify() == []

    def test_delete_appends_a_tombstone(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digests = _put_values(store, 3)
        assert store.delete(digests[2])
        assert json.loads(_log_lines(store)[-1]) == [2, digests[2]]
        assert store.digests() == digests[:2]
        # the sequence does not rewind past a deleted newest entry
        (d,) = _put_values(store, 1, start=3)
        assert store.get(d).seq == 3
        assert store.stats().next_seq == 4

    def test_gc_compacts_the_log_in_seq_order(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digests = _put_values(store, 5)
        store.delete(digests[3])
        assert len(_log_lines(store)) == 1 + 5 + 1  # header, puts, tombstone
        report = store.gc(max_entries=3)
        assert report.removed_evicted == 1  # seq 0, the oldest
        lines = _log_lines(store)
        assert json.loads(lines[0]) == {"schema": STORE_SCHEMA, "next_seq": 5}
        assert [json.loads(x)[:2] for x in lines[1:]] == [
            [1, digests[1]], [2, digests[2]], [4, digests[4]]
        ]
        assert store.digests() == [digests[1], digests[2], digests[4]]
        (d,) = _put_values(store, 1, start=5)
        assert store.get(d).seq == 5

    def test_gc_removes_staging_leftovers(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        digests = _put_values(store, 2)
        dead = store.root / "tmp" / f"{'e' * 64}.99999"
        dead.mkdir(parents=True)
        (dead / "entry.json").write_text("{}")
        report = store.gc()
        assert list((store.root / "tmp").iterdir()) == []
        assert any("staging" in f for f in report.findings)
        assert report.kept == 2 and store.digests() == digests

    def test_store_indexed_by_an_older_build_lists_and_accepts_puts(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        spec = _spec()
        old = [store.put(spec, run_spec(spec)), *_put_values(store, 2)]
        rows = {e["digest"]: {k: v for k, v in e.items() if k != "digest"}
                for e in store.entries()}
        # the whole-file index an older build kept, and no log
        (store.root / "index.log").unlink()
        (store.root / "index.json").write_text(json.dumps(
            {"schema": STORE_SCHEMA, "next_seq": 3, "entries": rows},
            indent=2, sort_keys=True,
        ))
        assert store.digests() == old
        assert store.entries()[0]["app"] == "ep.C"
        (new,) = _put_values(store, 1, start=2)
        assert store.get(new).seq == 3
        assert store.digests() == [*old, new]
        assert not (store.root / "index.json").exists()
        assert len(_log_lines(store)) == 1 + 4
        assert store.verify() == []

    def test_concurrent_writers_lose_no_line(self, tmp_path):
        """More writer processes than cores append to one log: every put
        gets its own line and its own seq."""
        root = tmp_path / "s"
        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_writer, args=(root, 100 * k, 40))
                 for k in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert not any(p.is_alive() for p in procs)
        assert all(p.exitcode == 0 for p in procs)
        store = ResultStore(root)
        lines = _log_lines(store)
        assert len(lines) == 1 + 160
        assert sorted(json.loads(x)[0] for x in lines[1:]) == list(range(160))
        assert len(set(store.digests())) == 160
        assert store.verify() == []

    def test_reads_work_where_fcntl_is_missing(self, tmp_path):
        """Only taking the lock needs fcntl; importing and reading don't."""
        digests = _put_values(ResultStore(tmp_path / "s"), 2)
        code = (
            "import sys; sys.modules['fcntl'] = None\n"
            "from repro.store import ResultStore\n"
            f"print(len(ResultStore({str(tmp_path / 's')!r}).digests()))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == str(len(digests))

    def test_writer_killed_holding_the_lock_leaves_the_store_writable(
        self, tmp_path
    ):
        store = ResultStore(tmp_path / "s")
        pid = os.fork()
        if pid == 0:  # the child dies inside the lock
            try:
                store._with_lock(lambda: os.kill(os.getpid(), signal.SIGKILL))
            finally:
                os._exit(1)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        start = time.monotonic()
        digests = _put_values(store, 1)
        assert time.monotonic() - start < 0.5
        assert store.digests() == digests
