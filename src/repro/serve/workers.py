"""The daemon's store and the job its workers run.

The daemon's jobs run in a :class:`~repro.harness.pool.WorkerPool` of
forked processes, the pool :func:`~repro.harness.parallel.map_specs`
fans out on.  The daemon gives the next job to any idle worker, and
its job table keeps a digest on one worker at a time.

Every worker writes the one store root.  A
:meth:`~repro.store.store.ResultStore.put` appends one line to the
store's index log under a blocking ``flock``, so it costs the same at
any store size, and the workers take turns on that lock
(docs/performance.md, "Several writers", has it measured with 2 and 4
workers).  A served result lands in the root, where ``repro submit
--store <root>`` and every other direct reader look for it.

A worker resolves a job as a direct ``repro submit --store`` would:
it looks the spec up in the root, runs a miss once and files the
result (:func:`run_served_job`).  A failure goes back through the
pool and ends the job; a resubmit of its spec reruns it.  A hung or
crashed simulation costs only its own worker, which the pool kills if
need be and respawns; the kernel drops a store lock the killed worker
held.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.harness import parallel
from repro.metrics.results import AppRunResult
from repro.serve.protocol import spec_from_wire
from repro.store import ResultStore

__all__ = ["ShardedStore", "run_served_job"]


class ShardedStore(ResultStore):
    """The daemon's store: one :class:`ResultStore` root that
    ``n_shards`` workers write.

    ``shards[k]``, the store worker ``k`` writes, is this store itself:
    an entry lands under the root whichever worker files it, and
    listing or verifying the root counts it once.
    """

    def __init__(self, root: Union[str, Path], n_shards: int):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1 (got {n_shards})")
        super().__init__(root)
        self.n_shards = n_shards

    @property
    def shards(self) -> list[ResultStore]:
        return [self] * self.n_shards


def run_served_job(root: str, wire: dict) -> str:
    """One served job: ``cached`` when the root already holds its
    result, else ``done`` once the run is filed there.

    The same :meth:`~repro.store.ResultStore.lookup` (a corrupt entry is
    a miss) and ``put`` as :class:`~repro.service.JobService`.  A spec
    that fails to decode or a run that raises fails the job, and the
    pool reports the exception as ``Type: message``.
    """
    store = ResultStore(root)
    spec = spec_from_wire(wire)
    entry = store.lookup(spec)
    if entry is not None and isinstance(entry.result, AppRunResult):
        return "cached"
    # looked up at call time: a forked worker runs the parent's run_spec
    store.put(spec, parallel.run_spec(spec))
    return "done"
