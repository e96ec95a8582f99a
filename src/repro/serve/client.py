"""Blocking client for the `repro serve` daemon (stdlib HTTP only).

:class:`ServeClient` is what the job verbs (``repro submit | status |
fetch --url``), ``examples/load_test.py`` and perfbench use: submit
spec batches, poll status, stream SSE events, fetch results and
metrics.  It deliberately depends on nothing beyond ``http.client``
-- the daemon speaks one-request-per-connection HTTP/1.1, so a
connection per call is the protocol, not an inefficiency.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass
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

    @property
    def retry_after_s(self) -> Optional[float]:
        """The server-suggested backoff on a 429/503, if any."""
        if isinstance(self.payload, dict):
            value = self.payload.get("retry_after_s")
            if isinstance(value, (int, float)):
                return float(value)
        return None


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

    def _split(self) -> tuple[str, int]:
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or parts.hostname is None:
            raise ValueError(
                f"base_url must be http://host:port (got {self.base_url!r})"
            )
        return parts.hostname, parts.port or 80

    def _request(
        self, method: str, path: str, payload: Optional[Any] = None
    ) -> Any:
        host, port = self._split()
        conn = http.client.HTTPConnection(host, port, timeout=self.timeout_s)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode()
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            decoded = _decode(resp.read())
            if resp.status >= 400:
                raise ServeError(resp.status, decoded)
            return decoded
        finally:
            conn.close()

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
        host, port = self._split()
        conn = http.client.HTTPConnection(host, port, timeout=self.timeout_s)
        try:
            conn.connect()
            conn.sock.settimeout(timeout_s)
            conn.request("GET", f"/v1/jobs/{digest}/events")
            resp = conn.getresponse()
            if resp.status >= 400:
                raise ServeError(resp.status, _decode(resp.read()))
            event, data = "", ""
            while True:
                line = resp.fp.readline()
                if not line:
                    return
                text = line.decode("utf-8").rstrip("\n")
                if text.startswith("event: "):
                    event = text[len("event: "):]
                elif text.startswith("data: "):
                    data = text[len("data: "):]
                elif text == "" and event:
                    yield event, json.loads(data) if data else {}
                    if event == "end":
                        return
                    event, data = "", ""
        finally:
            conn.close()

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
