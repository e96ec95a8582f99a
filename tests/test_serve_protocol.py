"""Tests for the serving wire protocol (repro.serve.protocol)."""

import asyncio
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workloads import AppSpec
from repro.harness.parallel import RunSpec
from repro.serve.protocol import (
    LAST_CHUNK,
    ProtocolError,
    Request,
    Response,
    chunk,
    error_body,
    json_response,
    read_request,
    spec_from_wire,
    spec_to_wire,
    sse_event,
    value_from_wire,
)
from repro.store.keys import canonical_json, canonical_value, digest_of, spec_digest


def _spec(seed=0, balancer="speed", **params):
    app = AppSpec(bench="ep.C", n_threads=4, total_compute_us=40_000)
    return RunSpec.make(
        "tigerton", app, balancer=balancer, cores=2, seed=seed, **params
    )


#: wire keys and reference strings, so generated trees reach the
#: decoder's branches rather than failing its first type check
_KEYS = st.sampled_from([
    "kind", "machine", "app", "balancer", "seed", "engine", "cores",
    "params", "fields", "__enum__", "__dataclass__", "__function__",
    "__dict__",
]) | st.text(max_size=6)
_ATOMS = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
    | st.sampled_from([
        "run", "tigerton", "speed", "heap", "repro:nothing", "os:system",
        "repro.apps.workloads:AppSpec", "repro.sched.task:WaitMode",
        "repro.sched.task:WaitMode.YIELD", "repro.store.keys:spec_key",
    ])
)
#: arbitrary JSON trees over those keys and atoms
JSON_TREES = st.recursive(
    _ATOMS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_KEYS, kids, max_size=4),
    max_leaves=24,
)


@st.composite
def mutated_wires(draw):
    """A valid wire with one field (or one AppSpec field) replaced."""
    wire = json.loads(json.dumps(spec_to_wire(_spec())))
    target = wire["app"]["fields"] if draw(st.booleans()) else wire
    target[draw(_KEYS)] = draw(JSON_TREES)
    return wire


class TestSpecCodec:
    def test_wire_is_the_store_key(self):
        spec = _spec()
        assert digest_of(spec_to_wire(spec)) == spec_digest(spec)

    @pytest.mark.parametrize("balancer", ["speed", "load", "pinned", "ule"])
    def test_round_trip_preserves_digest(self, balancer):
        spec = _spec(seed=3, balancer=balancer)
        wire = json.loads(json.dumps(spec_to_wire(spec)))  # through JSON
        assert spec_digest(spec_from_wire(wire)) == spec_digest(spec)

    def test_round_trip_with_params_and_core_list(self):
        from repro.core.speed_balancer import SpeedBalancerConfig

        app = AppSpec(bench="cg.B", n_threads=6, total_compute_us=30_000)
        spec = RunSpec.make(
            "barcelona",
            app,
            balancer="speed",
            cores=(0, 2, 4),
            seed=11,
            engine="native",
            speed_config=SpeedBalancerConfig(),
        )
        wire = json.loads(json.dumps(spec_to_wire(spec)))
        rebuilt = spec_from_wire(wire)
        assert rebuilt == spec
        assert spec_digest(rebuilt) == spec_digest(spec)

    @pytest.mark.parametrize("engine", ["batched", "bogus"])
    def test_rejects_unregistered_engine(self, engine):
        wire = spec_to_wire(_spec())
        wire["engine"] = engine
        with pytest.raises(ValueError, match="expected one of \\('heap', 'native'\\)"):
            spec_from_wire(wire)

    #: spec values that decode and digest but could never run (or, for
    #: a flavor, would run the UPC timings): each is refused at
    #: construction, so the wire is refused at decoding
    UNRUNNABLE = {
        "wait": ("app", "wait", "naptime", "unknown wait mode"),
        "flavor": ("app", "flavor", "openmp", "unknown flavor"),
        "bench": ("app", "bench", "zz.Z", "unknown benchmark"),
        "corunner": ("corunner", "kind", "dd-bench", "unknown co-runner kind"),
        "machine": ("spec", "machine", "cray1", "unknown machine preset"),
        "balancer": ("spec", "balancer", "bogus", "unknown balancer mode"),
        "cores-repeated": ("spec", "cores", [1, 1], "duplicate core ids"),
        "cores-empty": ("spec", "cores", [], "core subset is empty"),
        "cores-zero": ("spec", "cores", 0, "core subset is empty"),
        "cores-negative": ("spec", "cores", [-1, 0], "not a core number"),
        "cores-bool": ("spec", "cores", True, "not a core count"),
        "cores-bool-id": ("spec", "cores", [True, 2], "not a core number"),
        "cores-mixed": ("spec", "cores", [0, "1"], "not a core number"),
        "cores-outside": ("spec", "cores", [0, 99], "outside machine 'tigerton'"),
        "cores-too-many": ("spec", "cores", 10**9, "outside machine 'tigerton'"),
    }

    @pytest.mark.parametrize("case", sorted(UNRUNNABLE))
    def test_rejects_unrunnable_spec_values(self, case):
        from repro.harness.scenarios import CorunnerSpec

        where, field, value, message = self.UNRUNNABLE[case]
        wire = spec_to_wire(_spec(corunner_factories=(CorunnerSpec("cpu-hog"),)))
        if where == "app":
            wire["app"]["fields"][field] = value
        elif where == "spec":
            wire[field] = value
        else:
            wire["params"]["corunner_factories"][0]["fields"][field] = value
        with pytest.raises(ProtocolError, match=message):
            spec_from_wire(wire)

    def test_rejects_non_repro_references(self):
        wire = spec_to_wire(_spec())
        wire["app"] = {"__function__": "os:system"}
        with pytest.raises(ProtocolError, match="outside the repro package"):
            spec_from_wire(wire)

    #: repro.* function references outside the spec-factory modules:
    #: qualname walks that leave repro or reach a plain value, and code
    #: a worker would run as a machine or app factory
    ESCAPES = [
        "repro.store.store:os.getpid",
        "repro.serve.protocol:json.loads",
        "repro.analysis.sanitizer:SAN_RULES",
        "repro.cli:main",
        "repro.store.store:ResultStore.put",
    ]

    @pytest.mark.parametrize("ref", ESCAPES)
    @pytest.mark.parametrize("field", ["machine", "app"])
    def test_rejects_references_that_leave_their_module(self, ref, field):
        wire = spec_to_wire(_spec())
        wire[field] = {"__function__": ref}
        with pytest.raises(ProtocolError, match="is not a spec factory"):
            spec_from_wire(wire)

    def test_factory_module_references_must_name_their_own_object(self):
        # presets imports Machine: the walk reaches a class defined in
        # repro.topology.machine, not a preset factory
        wire = spec_to_wire(_spec())
        wire["machine"] = {"__function__": "repro.topology.presets:Machine"}
        with pytest.raises(ProtocolError, match="not an object defined under"):
            spec_from_wire(wire)

    def test_refused_factory_module_is_never_imported(self, monkeypatch):
        import importlib

        imported = []
        real = importlib.import_module
        monkeypatch.setattr(
            importlib, "import_module",
            lambda name, *a: imported.append(name) or real(name, *a),
        )
        with pytest.raises(ProtocolError, match="is not a spec factory"):
            value_from_wire({"__function__": "repro.cli:main"})
        assert imported == []

    def test_value_from_wire_rejects_a_module_attribute_walk(self):
        with pytest.raises(ProtocolError):
            value_from_wire({"__function__": "repro.store.store:os.getpid"})
        with pytest.raises(ProtocolError):
            value_from_wire({"__dataclass__": "repro.store.store:os.stat_result"})
        # a plain dict behind an enum reference is neither an enum nor code
        with pytest.raises(ProtocolError):
            value_from_wire({"__enum__": "repro.analysis.sanitizer:SAN_RULES.SAN001"})
        # nor is a class that is not an enum
        with pytest.raises(ProtocolError, match="not an enum"):
            value_from_wire({"__enum__": "repro.apps.workloads:AppSpec.bench"})

    def test_every_reference_the_store_writes_still_decodes(self):
        from repro.core.speed_balancer import SpeedBalancerConfig
        from repro.harness.scenarios import CorunnerSpec
        from repro.sched.task import WaitMode
        from repro.topology import presets
        from repro.topology.machine import DomainLevel

        values = [presets.tigerton, WaitMode.YIELD, DomainLevel.NUMA,
                  SpeedBalancerConfig(), CorunnerSpec("cpu-hog", core=0)]
        for value in values:
            wire = json.loads(json.dumps(canonical_value(value)))
            assert value_from_wire(wire) == value

    def test_rejects_wrong_kind_and_missing_fields(self):
        with pytest.raises(ProtocolError, match="kind"):
            spec_from_wire({"kind": "value"})
        wire = spec_to_wire(_spec())
        del wire["seed"]
        with pytest.raises(ProtocolError, match="missing"):
            spec_from_wire(wire)

    def test_rejects_non_object_and_bad_seed(self):
        with pytest.raises(ProtocolError, match="object"):
            spec_from_wire([1, 2])
        wire = spec_to_wire(_spec())
        wire["seed"] = "zero"
        with pytest.raises(ProtocolError, match="seed"):
            spec_from_wire(wire)

    def test_value_from_wire_rejects_unknown_enum_member(self):
        with pytest.raises(ProtocolError, match="no member"):
            value_from_wire(
                {"__enum__": "repro.sched.task:WaitMode.NOPE"}
            )

    def test_deeply_nested_wire_is_a_protocol_error(self):
        deep = 0
        for _ in range(sys.getrecursionlimit() + 100):
            deep = [deep]
        wire = dict(spec_to_wire(_spec()), cores=deep)
        with pytest.raises(ProtocolError, match="nested too deeply"):
            spec_from_wire(wire)

    @settings(max_examples=300, deadline=None)
    @given(wire=JSON_TREES | mutated_wires())
    def test_generated_trees_decode_or_raise_protocol_error(self, wire):
        try:
            spec = spec_from_wire(wire)
        except ProtocolError:
            return
        assert isinstance(spec, RunSpec)


_TARGETS = st.sampled_from(
    [b"/v1/jobs", b"/v1/jobs?tenant=a&x", b"http://[::1", b"//[bad", b"/%zz"]
) | st.binary(max_size=24)
_HEADERS = st.sampled_from([
    b"Content-Length: 0", b"Content-Length: 5", b"Content-Length: 100",
    b"Content-Length: -1", b"Content-Length: x", b"Content-Length: 99999999999",
    b"Host: x", b"no colon",
]) | st.binary(max_size=24)
#: requests shaped like HTTP (request line, headers, body), and noise
HTTP_BYTES = st.builds(
    lambda method, target, version, headers, body: (
        method + b" " + target + b" " + version + b"\r\n"
        + b"".join(h + b"\r\n" for h in headers) + b"\r\n" + body
    ),
    st.sampled_from([b"GET", b"POST", b""]) | st.binary(max_size=6),
    _TARGETS,
    st.sampled_from([b"HTTP/1.1", b"HTTP/2", b""]),
    st.lists(_HEADERS, max_size=3),
    st.binary(max_size=40),
) | st.binary(max_size=120)


class TestHttpPrimitives:
    def _parse(self, raw: bytes):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_request(reader)

        return asyncio.run(go())

    def test_parses_request_line_query_headers_body(self):
        body = b'{"x": 1}'
        raw = (
            b"POST /v1/jobs?tenant=alice HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        req = self._parse(raw)
        assert (req.method, req.path) == ("POST", "/v1/jobs")
        assert req.query == {"tenant": "alice"}
        assert req.headers["content-type"] == "application/json"
        assert req.json() == {"x": 1}

    def test_clean_close_returns_none(self):
        assert self._parse(b"") is None

    def test_malformed_request_line_raises(self):
        with pytest.raises(ProtocolError, match="malformed request line"):
            self._parse(b"NONSENSE\r\n\r\n")

    def test_oversized_body_rejected_before_read(self):
        for length in (b"999999999", b"9" * 5000):
            raw = (
                b"POST /v1/jobs HTTP/1.1\r\n"
                b"Content-Length: " + length + b"\r\n\r\n"
            )
            with pytest.raises(ProtocolError, match="exceeds"):
                self._parse(raw)

    def test_short_body_is_a_protocol_error(self):
        raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}"
        with pytest.raises(ProtocolError, match="closed mid-request"):
            self._parse(raw)

    def test_deeply_nested_body_raises_on_decode(self):
        body = b"[" * 100_000
        raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
        with pytest.raises(ProtocolError, match="nested too deeply"):
            self._parse(raw + body).json()

    @settings(max_examples=300, deadline=None)
    @given(raw=HTTP_BYTES)
    def test_generated_bytes_parse_or_raise_protocol_error(self, raw):
        try:
            req = self._parse(raw)
            if req is not None:
                req.json()
        except ProtocolError:
            return
        assert req is None or isinstance(req, Request)

    def test_bad_json_body_raises_on_decode(self):
        raw = (
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Content-Length: 3\r\n\r\nnot"
        )
        with pytest.raises(ProtocolError, match="not valid JSON"):
            self._parse(raw).json()

    def test_response_encode_has_length_and_close(self):
        # a response keeps its connection open unless it says
        # Connection: close, which the daemon sends only when it closes
        resp = json_response(error_body(404, "nope"), 404)
        for close in (False, True):
            raw = resp.encode(close=close).decode()
            head, _, body = raw.partition("\r\n\r\n")
            assert head.startswith("HTTP/1.1 404 Not Found")
            assert f"Content-Length: {len(body.encode())}" in head
            assert ("Connection: close" in head) is close
            assert json.loads(body) == {"error": "nope", "status": 404}

    def test_json_response_is_canonical_json(self):
        payload = {"b": [1, 2.5, None], "a": {"z": "x", "y": True}}
        assert json_response(payload).body == canonical_json(payload).encode()
        assert b" " not in json_response(payload).body

    def test_streaming_encode_omits_length(self):
        raw = Response(200, content_type="text/event-stream").encode(
            streaming=True
        ).decode()
        assert "Content-Length" not in raw
        assert "Transfer-Encoding: chunked" in raw
        assert raw.endswith("\r\n\r\n")

    def test_chunk_framing(self):
        assert chunk(b"event: x\n\n") == b"a\r\nevent: x\n\n\r\n"
        assert chunk(b"y" * 255).startswith(b"ff\r\n")
        assert LAST_CHUNK == b"0\r\n\r\n"

    @pytest.mark.parametrize("version, connection, keep", [
        ("HTTP/1.1", None, True),
        ("HTTP/1.1", "close", False),
        ("HTTP/1.1", "Keep-Alive, Close", False),
        ("HTTP/1.0", None, False),
        ("HTTP/1.0", "keep-alive", True),
    ])
    def test_keep_alive_follows_version_and_connection(self, version, connection, keep):
        head = f"GET /v1/healthz {version}\r\n"
        if connection is not None:
            head += f"Connection: {connection}\r\n"
        assert self._parse((head + "\r\n").encode()).keep_alive is keep

    @pytest.mark.parametrize("headers, match", [
        (b"Transfer-Encoding: chunked\r\n", "Transfer-Encoding"),
        (b"Content-Length: 2\r\nTransfer-Encoding: chunked\r\n", "Transfer-Encoding"),
        (b"Content-Length: 2\r\nContent-Length: 2\r\n", "repeated Content-Length"),
        (b"Content-Length: 2\r\ncontent-length: 7\r\n", "repeated Content-Length"),
        (b"Content-Length: 2, 7\r\n", "bad Content-Length"),
        (b"Content-Length: +2\r\n", "bad Content-Length"),
        (b"Content-Length: 0_2\r\n", "bad Content-Length"),
        (b"Content-Length: -1\r\n", "bad Content-Length"),
    ])
    def test_framing_the_reader_cannot_delimit_is_refused(self, headers, match):
        raw = b"POST /v1/jobs HTTP/1.1\r\n" + headers + b"\r\n{}"
        with pytest.raises(ProtocolError, match=match):
            self._parse(raw)


class TestSse:
    def test_event_framing(self):
        block = sse_event("status", {"state": "running"}).decode()
        assert block == 'event: status\ndata: {"state": "running"}\n\n'
