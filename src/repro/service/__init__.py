"""Job service: cached, deduplicated, resumable experiment execution.

The north-star workflow ("re-run the paper's grid, change one cell,
pay for one cell") lives here: :class:`JobService` resolves batches of
:class:`~repro.harness.parallel.RunSpec` configurations against the
content-addressed store (:mod:`repro.store`), simulates each miss
once via :mod:`repro.harness.parallel` and reports the failed ones in
one :class:`JobFailedError`; resubmitting reruns them.  Exposed on the
CLI as ``repro submit`` / ``repro status`` / ``repro fetch --store
DIR``; the same verbs take ``--url URL`` to run against a
:mod:`repro.serve` daemon instead.
"""

from repro.service.jobs import JobFailedError, JobService, run_specs_cached

__all__ = ["JobFailedError", "JobService", "run_specs_cached"]
