"""Wire protocol of the serving layer: specs, HTTP/1.1, SSE.

Three small vocabularies live here, shared by the daemon
(:mod:`repro.serve.server`), the worker pool
(:mod:`repro.serve.workers`) and the client
(:mod:`repro.serve.client`):

* **spec codec** -- a submitted configuration travels as the *store
  key* of its :class:`~repro.harness.parallel.RunSpec`
  (:func:`repro.store.keys.spec_key`).  :func:`spec_from_wire` is the
  inverse: it resolves ``__dataclass__``/``__enum__``/``__function__``
  references back to live objects, restricted to ``repro.*`` modules
  (and functions to the spec-factory modules, :data:`FACTORY_MODULES`)
  so a request body can never name arbitrary importable code.  A job's
  identity is the spec digest of the decoded wire, so optional fields
  may be left out and unknown ones are ignored.
* **HTTP/1.1 primitives** -- a deliberately minimal asyncio request
  reader and response encoder (one request per connection,
  ``Connection: close``).  The daemon serves JSON and SSE only; a
  full framework would add dependencies the container does not have.
* **SSE framing** -- ``event:``/``data:`` blocks for the
  ``GET /v1/jobs/{digest}/events`` stream.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass, field
from typing import Any, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.harness.parallel import RunSpec
from repro.store.keys import resolve_ref, spec_key

__all__ = [
    "FACTORY_MODULES",
    "MAX_BODY_BYTES",
    "ProtocolError",
    "Request",
    "Response",
    "error_body",
    "json_response",
    "read_request",
    "spec_from_wire",
    "spec_to_wire",
    "sse_event",
    "value_from_wire",
]

#: request bodies beyond this are rejected with 413 before parsing
MAX_BODY_BYTES = 8 * 1024 * 1024

#: the modules whose functions a wire spec may name: the machine
#: preset factories.  ``run_app`` calls a callable machine or app, so
#: any other function (``repro.cli:main``, a store method) would run in
#: a worker; such a reference is refused before its module is imported.
FACTORY_MODULES = frozenset({"repro.topology.presets"})

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(ValueError):
    """A request (or a wire spec) violates the serving protocol."""


# ----------------------------------------------------------------------
# spec codec
# ----------------------------------------------------------------------
def spec_to_wire(spec: RunSpec) -> dict:
    """The JSON wire form of a spec: exactly its canonical store key."""
    return spec_key(spec)


def _resolve_ref(
    ref: str, what: str, modules: Optional[frozenset[str]] = None
) -> Any:
    """Resolve ``"module:qualname"`` from a wire tree, repro-only.

    :func:`~repro.store.keys.resolve_ref` accepts only an object whose
    own name is ``ref``, so the walk cannot leave ``repro`` through a
    module attribute such as ``repro.store.store:os.getpid``.  With
    ``modules``, the reference must also lie in one of them.
    """
    if not isinstance(ref, str) or ":" not in ref:
        raise ProtocolError(f"malformed {what} reference {ref!r}")
    mod = ref.partition(":")[0]
    if mod != "repro" and not mod.startswith("repro."):
        raise ProtocolError(
            f"{what} reference {ref!r} is outside the repro package; "
            "wire specs may only name repro.* code"
        )
    if modules is not None and mod not in modules:
        raise ProtocolError(
            f"{what} reference {ref!r} is not a spec factory; wire specs "
            f"may only name functions of {', '.join(sorted(modules))}"
        )
    try:
        return resolve_ref(ref)
    except LookupError as exc:
        raise ProtocolError(f"cannot resolve {what}: {exc}") from None


def value_from_wire(tree: Any) -> Any:
    """Invert :func:`~repro.store.keys.canonical_value` on a wire tree."""
    if tree is None or isinstance(tree, (bool, int, float, str)):
        return tree
    if isinstance(tree, list):
        return [value_from_wire(v) for v in tree]
    if isinstance(tree, dict):
        if "__enum__" in tree:
            ref = tree["__enum__"]
            if not isinstance(ref, str) or "." not in ref:
                raise ProtocolError(f"malformed enum reference {ref!r}")
            type_ref, _, member = ref.rpartition(".")
            enum_type = _resolve_ref(type_ref, "enum")
            if not (isinstance(enum_type, type) and issubclass(enum_type, enum.Enum)):
                raise ProtocolError(f"{type_ref!r} is not an enum")
            try:
                return enum_type[member]
            except KeyError:
                raise ProtocolError(
                    f"{type_ref} has no member {member!r}"
                ) from None
        if "__dataclass__" in tree:
            cls = _resolve_ref(tree["__dataclass__"], "dataclass")
            if not dataclasses.is_dataclass(cls):
                raise ProtocolError(
                    f"{tree['__dataclass__']!r} is not a dataclass"
                )
            fields = tree.get("fields", {})
            if not isinstance(fields, dict):
                raise ProtocolError("dataclass wire form needs a fields object")
            return cls(**{k: value_from_wire(v) for k, v in fields.items()})
        if "__function__" in tree:
            return _resolve_ref(tree["__function__"], "function", FACTORY_MODULES)
        if "__dict__" in tree:
            pairs = tree["__dict__"]
            if not isinstance(pairs, list):
                raise ProtocolError("__dict__ wire form needs a pair list")
            return {
                value_from_wire(k): value_from_wire(v) for k, v in pairs
            }
        return {k: value_from_wire(v) for k, v in tree.items()}
    raise ProtocolError(
        f"wire value {tree!r} (type {type(tree).__qualname__}) is not JSON"
    )


def spec_from_wire(wire: dict) -> RunSpec:
    """Reconstruct the :class:`RunSpec` behind one wire tree.

    Round-trip stable: ``spec_digest(spec_from_wire(spec_to_wire(s)))
    == spec_digest(s)`` (asserted by the protocol tests), so the daemon,
    its workers and a direct ``run_specs_cached`` call all key one
    configuration identically.  Any tree that does not decode -- a
    value the named dataclass or :meth:`RunSpec.make` rejects, or one
    nested too deeply to walk -- raises :class:`ProtocolError`.
    """
    try:
        return _spec_from_wire(wire)
    except ProtocolError:
        raise
    except RecursionError:
        raise ProtocolError("wire spec is nested too deeply") from None
    except (TypeError, ValueError, LookupError) as exc:
        raise ProtocolError(
            f"wire spec does not decode ({type(exc).__name__}: {exc})"
        ) from None


def _spec_from_wire(wire: dict) -> RunSpec:
    if not isinstance(wire, dict):
        raise ProtocolError(f"wire spec must be an object, got {type(wire).__qualname__}")
    if wire.get("kind") != "run":
        raise ProtocolError(f"wire spec kind must be 'run', got {wire.get('kind')!r}")
    missing = {"machine", "app", "balancer", "seed", "engine"} - set(wire)
    if missing:
        raise ProtocolError(f"wire spec is missing field(s) {sorted(missing)}")
    machine = value_from_wire(wire["machine"])
    if not (isinstance(machine, str) or callable(machine)):
        raise ProtocolError(f"wire machine {machine!r} is neither a preset name nor a factory")
    app = value_from_wire(wire["app"])
    if not callable(app):
        raise ProtocolError(f"wire app {app!r} is not an AppSpec or factory")
    cores = value_from_wire(wire.get("cores"))
    params = wire.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("wire params must be an object")
    if not isinstance(wire["seed"], int) or isinstance(wire["seed"], bool):
        raise ProtocolError(f"wire seed must be an int, got {wire['seed']!r}")
    return RunSpec.make(
        machine,
        app,
        balancer=str(wire["balancer"]),
        cores=cores,
        seed=wire["seed"],
        engine=str(wire["engine"]),
        **{str(k): value_from_wire(v) for k, v in params.items()},
    )


# ----------------------------------------------------------------------
# HTTP/1.1 primitives
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]  #: keys lower-cased
    body: bytes

    def json(self) -> Any:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON ({exc})") from None
        except RecursionError:
            raise ProtocolError("request body is nested too deeply") from None


@dataclass
class Response:
    """One HTTP response; ``encode`` produces the full byte stream."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self, streaming: bool = False) -> bytes:
        """Full response bytes; ``streaming`` emits the head only,
        without ``Content-Length`` (the SSE mode: the client reads the
        event stream until EOF)."""
        reason = _REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        headers = {
            "Content-Type": self.content_type,
            "Connection": "close",
            **({} if streaming else {"Content-Length": str(len(self.body))}),
            **self.headers,
        }
        for name in headers:
            lines.append(f"{name}: {headers[name]}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head if streaming else head + self.body


def json_response(
    payload: Any, status: int = 200, headers: Optional[dict[str, str]] = None
) -> Response:
    body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    return Response(status=status, body=body, headers=dict(headers or {}))


def error_body(status: int, message: str, **extra: Any) -> dict:
    """The uniform error payload: ``{"error": ..., "status": ...}``."""
    return {"error": message, "status": status, **extra}


async def read_request(reader: Any) -> Optional[Request]:
    """Parse one HTTP/1.1 request from an asyncio stream reader.

    Returns ``None`` on a cleanly closed connection before any bytes;
    raises :class:`ProtocolError` on malformed or oversized input.
    """
    import asyncio

    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-request") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError("request head too large") from None
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes all bytes
        raise ProtocolError("request head is not latin-1") from None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    try:
        split = urlsplit(target)
        query = dict(parse_qsl(split.query, keep_blank_values=True))
    except ValueError:
        raise ProtocolError(f"malformed request target {target!r}") from None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    try:
        n = int(length)
    except ValueError:
        raise ProtocolError(f"bad Content-Length {length!r}") from None
    if n < 0 or n > MAX_BODY_BYTES:
        raise ProtocolError(f"request body of {n} bytes exceeds {MAX_BODY_BYTES}")
    try:
        body = await reader.readexactly(n) if n else b""
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-request") from None
    return Request(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


# ----------------------------------------------------------------------
# SSE framing
# ----------------------------------------------------------------------
def sse_event(event: str, data: Any) -> bytes:
    """One Server-Sent-Events block: ``event:`` + single-line ``data:``."""
    payload = json.dumps(data, sort_keys=True)
    return f"event: {event}\ndata: {payload}\n\n".encode()
