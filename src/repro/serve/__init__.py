"""`repro serve` -- simulation-as-a-service over the content store.

The serving layer turns the batch pipeline
(:func:`repro.service.run_specs_cached`) into a long-lived multi-tenant
daemon without changing what a result *is*: a job submitted over HTTP
is keyed, executed, stored and digested exactly as a direct call would
key, execute, store and digest it (byte-identical results -- the
parity contract the serve tests and CI smoke assert).

Modules:

* :mod:`~repro.serve.protocol` -- wire spec codec, HTTP/1.1, SSE
* :mod:`~repro.serve.tenants`  -- queues, token buckets, service windows
* :mod:`~repro.serve.dispatch` -- speed-aware weighted-fair dispatcher
* :mod:`~repro.serve.workers`  -- sharded store + worker processes
* :mod:`~repro.serve.metrics`  -- counters, latency percentiles
* :mod:`~repro.serve.server`   -- the asyncio daemon
* :mod:`~repro.serve.client`   -- blocking stdlib client
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.dispatch import SpeedAwareDispatcher
from repro.serve.metrics import ServeMetrics, percentile
from repro.serve.protocol import ProtocolError, spec_from_wire, spec_to_wire
from repro.serve.server import (
    BackgroundServer,
    ReproServer,
    ServeConfig,
    run_server,
)
from repro.serve.tenants import AdmissionError, Tenant, TenantConfig
from repro.serve.workers import ProcessWorkerPool, ShardedStore, shard_index

__all__ = [
    "AdmissionError",
    "BackgroundServer",
    "ProcessWorkerPool",
    "ProtocolError",
    "ReproServer",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeMetrics",
    "ShardedStore",
    "SpeedAwareDispatcher",
    "Tenant",
    "TenantConfig",
    "percentile",
    "run_server",
    "shard_index",
    "spec_from_wire",
    "spec_to_wire",
]
