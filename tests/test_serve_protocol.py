"""Tests for the serving wire protocol (repro.serve.protocol)."""

import asyncio
import json

import pytest

from repro.apps.workloads import AppSpec
from repro.harness.parallel import RunSpec
from repro.serve.protocol import (
    ProtocolError,
    Response,
    error_body,
    json_response,
    read_request,
    spec_from_wire,
    spec_to_wire,
    sse_event,
    value_from_wire,
    wire_digest,
)
from repro.store.keys import spec_digest


def _spec(seed=0, balancer="speed", **params):
    app = AppSpec(bench="ep.C", n_threads=4, total_compute_us=40_000)
    return RunSpec.make(
        "tigerton", app, balancer=balancer, cores=2, seed=seed, **params
    )


class TestSpecCodec:
    def test_wire_digest_is_store_digest(self):
        spec = _spec()
        assert wire_digest(spec_to_wire(spec)) == spec_digest(spec)

    @pytest.mark.parametrize("balancer", ["speed", "load", "pinned", "ule"])
    def test_round_trip_preserves_digest(self, balancer):
        spec = _spec(seed=3, balancer=balancer)
        wire = json.loads(json.dumps(spec_to_wire(spec)))  # through JSON
        assert spec_digest(spec_from_wire(wire)) == wire_digest(wire)

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
        assert spec_digest(rebuilt) == wire_digest(wire)

    @pytest.mark.parametrize("engine", ["batched", "bogus"])
    def test_rejects_unregistered_engine(self, engine):
        wire = spec_to_wire(_spec())
        wire["engine"] = engine
        with pytest.raises(ValueError, match="expected one of \\('heap', 'native'\\)"):
            spec_from_wire(wire)

    def test_rejects_non_repro_references(self):
        wire = spec_to_wire(_spec())
        wire["app"] = {"__function__": "os:system"}
        with pytest.raises(ProtocolError, match="outside the repro package"):
            spec_from_wire(wire)

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
        raw = (
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Content-Length: 999999999\r\n\r\n"
        )
        with pytest.raises(ProtocolError, match="exceeds"):
            self._parse(raw)

    def test_bad_json_body_raises_on_decode(self):
        raw = (
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Content-Length: 3\r\n\r\nnot"
        )
        with pytest.raises(ProtocolError, match="not valid JSON"):
            self._parse(raw).json()

    def test_response_encode_has_length_and_close(self):
        resp = json_response(error_body(404, "nope"), 404)
        raw = resp.encode().decode()
        head, _, body = raw.partition("\r\n\r\n")
        assert head.startswith("HTTP/1.1 404 Not Found")
        assert f"Content-Length: {len(body.encode())}" in head
        assert "Connection: close" in head
        assert json.loads(body) == {"error": "nope", "status": 404}

    def test_streaming_encode_omits_length(self):
        raw = Response(200, content_type="text/event-stream").encode(
            streaming=True
        ).decode()
        assert "Content-Length" not in raw
        assert raw.endswith("\r\n\r\n")


class TestSse:
    def test_event_framing(self):
        block = sse_event("status", {"state": "running"}).decode()
        assert block == 'event: status\ndata: {"state": "running"}\n\n'
