"""Content-addressed experiment store.

Paper-scale evaluation grids (NAS benches x balancers x core counts x
10 seeds, Section 6 of the paper) are expensive to recompute and
perfectly cacheable: every cell is a deterministic function of its
configuration.  This package provides the persistence layer --

* :mod:`repro.store.keys` turns a configuration
  (:class:`~repro.harness.parallel.RunSpec`, sweep cell) into a
  canonical SHA-256 digest;
* :mod:`repro.store.store` files results (and optional gzipped traces)
  under those digests on disk, with integrity verified on every read,
  plus ``gc`` / ``verify`` / ``stats`` maintenance.

The job layer on top (:mod:`repro.service`) dedupes submissions
against this store so identical configurations simulate exactly once;
``repeat_run(store=...)`` / ``sweep(store=...)`` and the ``repro
submit`` CLI ride on both.  See docs/store.md.
"""

from repro.store.keys import (
    UnstorableSpecError,
    canonical_json,
    canonical_value,
    digest_of,
    function_ref,
    spec_digest,
    spec_key,
    sweep_cell_key,
)
from repro.store.store import (
    DEFAULT_ROOT,
    STORE_SCHEMA,
    GcReport,
    ResultStore,
    StoreEntry,
    StoreError,
    StoreIntegrityError,
    StoreStats,
)

__all__ = [
    "DEFAULT_ROOT",
    "STORE_SCHEMA",
    "GcReport",
    "ResultStore",
    "StoreEntry",
    "StoreError",
    "StoreIntegrityError",
    "StoreStats",
    "UnstorableSpecError",
    "canonical_json",
    "canonical_value",
    "digest_of",
    "function_ref",
    "spec_digest",
    "spec_key",
    "sweep_cell_key",
]
