"""Blocking client for the `repro serve` daemon (stdlib HTTP only).

:class:`ServeClient` is what the job verbs (``repro submit | status |
fetch --url``), ``examples/load_test.py`` and perfbench use: submit
spec batches, poll status, stream SSE events, fetch results and
metrics.  It depends on nothing beyond ``http.client``.

The daemon keeps HTTP/1.1 connections open, so the client keeps the
idle ones in a pool: a call takes one (or opens one), and puts it back
only once its response has been read to the end.  A served job's
submit, event stream and result fetch then share one connection.  The
pool belongs to the client, not to a thread, so a client shared by
short-lived threads strands no socket in a finished one; each
connection serves one call at a time.  :meth:`ServeClient.close`
closes the idle connections.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence
from urllib.parse import urlsplit

from repro.harness.parallel import RunSpec
from repro.serve import clock as _clock
from repro.serve.protocol import spec_to_wire

__all__ = ["ServeClient", "ServeError"]


class ServeError(Exception):
    """A non-2xx daemon response, carrying the decoded error payload."""

    def __init__(self, status: int, payload: Any):
        message = (
            payload.get("error", str(payload))
            if isinstance(payload, dict)
            else str(payload)
        )
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


def _decode(raw: bytes) -> Any:
    """A response body: JSON when it parses, else the text."""
    try:
        return json.loads(raw.decode()) if raw else None
    except (UnicodeDecodeError, json.JSONDecodeError):
        return raw.decode(errors="replace")


@dataclass
class ServeClient:
    """Talk to one daemon at ``base_url`` (e.g. http://127.0.0.1:8421)."""

    base_url: str
    timeout_s: float = 60.0
    #: idle kept-alive connections, most recently used last
    _idle: list[http.client.HTTPConnection] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def _split(self) -> tuple[str, int]:
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or parts.hostname is None:
            raise ValueError(
                f"base_url must be http://host:port (got {self.base_url!r})"
            )
        return parts.hostname, parts.port or 80

    def close(self) -> None:
        """Close the idle connections.  The client stays usable: a
        later call opens a new connection."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # -- connections ----------------------------------------------------
    def _send(
        self, method: str, path: str, body: Optional[bytes], timeout_s: Optional[float]
    ) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request and read the response head, on an idle
        connection if there is one; reads then wait ``timeout_s``.

        The daemon closes a connection only between requests, so a
        reused connection that fails before any response byte arrives
        was closed while it sat idle and never delivered the request:
        it is sent once more, on a new connection.
        """
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        try:
            if conn is not None:
                try:
                    return conn, self._exchange(conn, method, path, body, timeout_s)
                except ConnectionError:
                    conn.close()
            host, port = self._split()
            conn = http.client.HTTPConnection(host, port, timeout=self.timeout_s)
            conn.connect()
            return conn, self._exchange(conn, method, path, body, timeout_s)
        except BaseException:
            if conn is not None:
                conn.close()
            raise

    @staticmethod
    def _exchange(
        conn: http.client.HTTPConnection,
        method: str,
        path: str,
        body: Optional[bytes],
        timeout_s: Optional[float],
    ) -> http.client.HTTPResponse:
        assert conn.sock is not None
        if conn.sock.gettimeout() != timeout_s:
            conn.sock.settimeout(timeout_s)
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=body, headers=headers)
        return conn.getresponse()

    def _release(
        self, conn: http.client.HTTPConnection, resp: http.client.HTTPResponse
    ) -> None:
        """Pool ``conn`` if its response was read to the end and the
        daemon keeps it open; close both otherwise."""
        if resp.isclosed() and conn.sock is not None:
            with self._lock:
                self._idle.append(conn)
        else:
            resp.close()
            conn.close()

    def _request(
        self, method: str, path: str, payload: Optional[Any] = None
    ) -> Any:
        body = None if payload is None else json.dumps(payload).encode()
        conn, resp = self._send(method, path, body, self.timeout_s)
        try:
            raw = resp.read()
        finally:
            self._release(conn, resp)
        decoded = _decode(raw)
        if resp.status >= 400:
            raise ServeError(resp.status, decoded)
        return decoded

    # -- API calls ------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def submit(
        self, specs: Sequence[RunSpec], tenant: str = "default"
    ) -> dict:
        """Submit a spec batch; returns the 202 body (per-job views)."""
        return self._request(
            "POST",
            "/v1/jobs",
            {"tenant": tenant, "specs": [spec_to_wire(s) for s in specs]},
        )

    def submit_wires(self, wires: Sequence[dict], tenant: str = "default") -> dict:
        """Submit wire specs as given, unchecked: the raw path tests use to
        send malformed bodies."""
        return self._request(
            "POST", "/v1/jobs", {"tenant": tenant, "specs": list(wires)}
        )

    def status(self, digest: str) -> dict:
        return self._request("GET", f"/v1/jobs/{digest}")

    def jobs(self, tenant: Optional[str] = None) -> list[dict]:
        path = "/v1/jobs" + (f"?tenant={tenant}" if tenant else "")
        return self._request("GET", path)["jobs"]

    def result(self, digest: str) -> dict:
        return self._request("GET", f"/v1/results/{digest}")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    # -- SSE ------------------------------------------------------------
    def events(
        self, digest: str, timeout_s: Optional[float] = None
    ) -> Iterator[tuple[str, dict]]:
        """Stream ``(event, data)`` pairs for one job until ``end``.

        Yields every status transition the daemon publishes (including
        the replay of transitions that happened before the stream was
        opened), terminating after the ``end`` event.  ``timeout_s``
        bounds the wait for each event, not the connect (that is the
        client's ``timeout_s``): ``None``, the default, follows a job
        however long it stays pending or running.
        """
        conn, resp = self._send(
            "GET", f"/v1/jobs/{digest}/events", None, timeout_s
        )
        try:
            if resp.status >= 400:
                raise ServeError(resp.status, _decode(resp.read()))
            event, data = "", ""
            while True:
                try:
                    line = resp.readline()
                except http.client.IncompleteRead:
                    line = b""  # the stream broke off before its last chunk
                if not line:
                    return
                text = line.decode("utf-8").rstrip("\n")
                if text.startswith("event: "):
                    event = text[len("event: "):]
                elif text.startswith("data: "):
                    data = text[len("data: "):]
                elif text == "" and event:
                    payload = json.loads(data) if data else {}
                    if event == "end":
                        resp.read()  # the last chunk: the response is whole
                        yield event, payload
                        return
                    yield event, payload
                    event, data = "", ""
        finally:
            self._release(conn, resp)

    # -- polling --------------------------------------------------------
    def wait(
        self,
        digest: str,
        poll_s: float = 0.2,
        timeout_s: Optional[float] = None,
    ) -> dict:
        """Poll until the job reaches a terminal state; returns the view.

        Raises :class:`TimeoutError` if ``timeout_s`` elapses first.
        """
        deadline = (
            _clock.monotonic() + timeout_s if timeout_s is not None else None
        )
        while True:
            view = self.status(digest)
            if view["state"] in ("done", "cached", "failed"):
                return view
            if deadline is not None and _clock.monotonic() > deadline:
                raise TimeoutError(
                    f"job {digest[:12]}... still {view['state']} after "
                    f"{timeout_s:g}s"
                )
            time.sleep(poll_s)
