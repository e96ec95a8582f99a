"""Job service: cached, deduplicated, resumable experiment execution.

The north-star workflow ("re-run the paper's grid, change one cell,
pay for one cell") lives here: :class:`JobService` resolves batches of
:class:`~repro.harness.parallel.RunSpec` configurations against the
content-addressed store (:mod:`repro.store`), simulates only the
misses via :mod:`repro.harness.parallel`, retries crashed workers with
bounded backoff and streams per-job status.  Exposed on the CLI as
``repro submit`` / ``repro status`` / ``repro fetch --store DIR``; the
same verbs take ``--url URL`` to run against a :mod:`repro.serve`
daemon instead.
"""

from repro.service.jobs import (
    JOB_STATES,
    JobFailedError,
    JobService,
    JobStatus,
    run_specs_cached,
)

__all__ = [
    "JOB_STATES",
    "JobFailedError",
    "JobService",
    "JobStatus",
    "run_specs_cached",
]
