"""Result/trace export and import: dicts, JSON and CSV.

Experiments that take minutes to simulate deserve durable outputs:
``result_to_dict`` / ``results_to_json`` serialize
:class:`~repro.metrics.results.AppRunResult` (and repeats) including
the derived metrics; ``result_from_dict`` / ``results_from_json`` are
the exact inverses (derived metrics are recomputed, not trusted), so a
result can round-trip through disk -- the content-addressed store
(:mod:`repro.store`) is built on that guarantee.  ``trace_to_dict`` /
``trace_from_dict`` do the same for a full
:class:`~repro.metrics.trace.TraceRecorder` history, and
``trace_to_csv`` dumps one for external plotting.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Union

from repro.metrics.results import AppRunResult, RepeatedResult
from repro.metrics.trace import TraceRecorder

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "results_to_json",
    "results_from_json",
    "trace_to_dict",
    "trace_from_dict",
    "trace_to_csv",
]


def result_to_dict(result: Union[AppRunResult, RepeatedResult]) -> dict:
    """Serialize a run (or repeat aggregate) including derived metrics."""
    if isinstance(result, RepeatedResult):
        return {
            "type": "repeated",
            "runs": [result_to_dict(r) for r in result.runs],
            "mean_time_us": result.mean_time_us,
            "worst_time_us": result.worst_time_us,
            "best_time_us": result.best_time_us,
            "variation_pct": result.variation_pct,
            "mean_speedup": result.mean_speedup,
            "mean_migrations": result.mean_migrations,
        }
    return {
        "type": "run",
        "app_name": result.app_name,
        "balancer": result.balancer,
        "n_cores": result.n_cores,
        "n_threads": result.n_threads,
        "seed": result.seed,
        "elapsed_us": result.elapsed_us,
        "total_work_us": result.total_work_us,
        "migrations": result.migrations,
        "system_migrations": result.system_migrations,
        "speedup": result.speedup,
        "spin_fraction": result.spin_fraction,
        "finish_spread": result.finish_spread,
        "progress_balance": result.progress_balance,
        "thread_exec_us": list(result.thread_exec_us),
        "thread_compute_us": list(result.thread_compute_us),
        "thread_finish_us": list(result.thread_finish_us),
    }


def result_from_dict(d: dict) -> Union[AppRunResult, RepeatedResult]:
    """Rebuild a result from its :func:`result_to_dict` form.

    Only measured fields are read back; derived metrics (``speedup``,
    ``variation_pct``, ...) are properties recomputed from those
    fields, so a loaded result is *identical* to the original --
    ``loaded.canonical_json() == original.canonical_json()`` byte for
    byte.  Unknown keys are ignored (forward compatibility); missing
    measured fields raise ``KeyError``.
    """
    kind = d.get("type", "run")
    if kind == "repeated":
        return RepeatedResult(runs=[_run_from_dict(r) for r in d["runs"]])
    if kind == "run":
        return _run_from_dict(d)
    raise ValueError(f"unknown result type {kind!r}; expected 'run' or 'repeated'")


def _run_from_dict(d: dict) -> AppRunResult:
    return AppRunResult(
        app_name=d["app_name"],
        balancer=d["balancer"],
        n_cores=d["n_cores"],
        n_threads=d["n_threads"],
        seed=d["seed"],
        elapsed_us=d["elapsed_us"],
        total_work_us=d["total_work_us"],
        migrations=d["migrations"],
        thread_exec_us=list(d["thread_exec_us"]),
        thread_compute_us=list(d["thread_compute_us"]),
        thread_finish_us=list(d["thread_finish_us"]),
        system_migrations=d.get("system_migrations", 0),
    )


def results_to_json(
    results: Iterable[Union[AppRunResult, RepeatedResult]], indent: int = 2
) -> str:
    """JSON document for a collection of results."""
    return json.dumps([result_to_dict(r) for r in results], indent=indent)


def results_from_json(text: str) -> list[Union[AppRunResult, RepeatedResult]]:
    """Parse a :func:`results_to_json` document back into result objects."""
    doc = json.loads(text)
    if not isinstance(doc, list):
        raise ValueError(
            f"expected a JSON array of results, got {type(doc).__name__}"
        )
    return [result_from_dict(d) for d in doc]


def trace_to_dict(trace: TraceRecorder) -> dict:
    """Serialize a complete recorded history, truncation counters included.

    The rows are zipped from the recorder's columns; no
    :class:`~repro.metrics.trace.Segment` is built.
    """
    return {
        "limit": trace.limit,
        "dropped": trace.dropped,
        "migrations_dropped": trace.migrations_dropped,
        "segments": list(map(list, trace.iter_segment_tuples())),
        "migrations": list(map(list, trace.iter_migration_tuples())),
    }


def trace_from_dict(d: dict) -> TraceRecorder:
    """Rebuild a :class:`TraceRecorder` from its :func:`trace_to_dict` form.

    Records are restored verbatim, column by column (bypassing the
    recorder's own cap logic), so the loaded trace -- including
    ``dropped`` counters and therefore
    :attr:`~repro.metrics.trace.TraceRecorder.truncated` -- is
    indistinguishable from the live one:
    :func:`repro.analysis.sanitizer.trace_digest` of the two is equal.
    """
    trace = TraceRecorder(limit=d["limit"])
    trace.load_rows(d["segments"], d["migrations"])
    trace.dropped = d["dropped"]
    trace.migrations_dropped = d["migrations_dropped"]
    return trace


def trace_to_csv(trace: TraceRecorder) -> str:
    """CSV with one row per execution segment."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["tid", "task", "core", "start_us", "end_us", "kind"])
    writer.writerows(trace.iter_segment_tuples())
    return buf.getvalue()
