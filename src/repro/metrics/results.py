"""Run result containers.

``AppRunResult`` captures one application execution on one simulated
system; ``RepeatedResult`` aggregates the 10-seed repeats the paper
uses everywhere ("Each experiment has been repeated ten times or
more").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.metrics import stats

__all__ = ["AppRunResult", "RepeatedResult"]


@dataclass
class AppRunResult:
    """Measurements from one app in one run."""

    app_name: str
    balancer: str
    n_cores: int
    n_threads: int
    seed: int
    elapsed_us: int
    total_work_us: int
    migrations: int
    #: per-thread cumulative execution times (occupancy)
    thread_exec_us: list[int] = field(default_factory=list)
    #: per-thread productive (non-spin) execution times
    thread_compute_us: list[int] = field(default_factory=list)
    #: per-thread completion times (absolute simulation time)
    thread_finish_us: list[int] = field(default_factory=list)
    #: total migrations in the whole system during the run
    system_migrations: int = 0

    @property
    def speedup(self) -> float:
        """Speedup over serial execution of the same total work.

        With N threads on N cores and no interference this approaches
        N -- the paper's "One-per-core" ideal lines in Figures 3/5.
        """
        return self.total_work_us / self.elapsed_us

    @property
    def spin_fraction(self) -> float:
        """Fraction of occupancy burned in synchronization waits."""
        total = sum(self.thread_exec_us)
        if total == 0:
            return 0.0
        return 1.0 - sum(self.thread_compute_us) / total

    @property
    def finish_spread(self) -> float:
        """(last finish - first finish) / elapsed: tail imbalance.

        Near 0 when all threads cross the line together (SPEED's goal);
        large when early finishers idle while stragglers grind (the
        LOAD-with-yield-barriers failure mode, where half the threads
        are done at half time).
        """
        if len(self.thread_finish_us) < 2 or self.elapsed_us == 0:
            return 0.0
        return (max(self.thread_finish_us) - min(self.thread_finish_us)) / self.elapsed_us

    @property
    def progress_balance(self) -> float:
        """min/max of per-thread productive time (1.0 = equal progress).

        SPMD applications need "all tasks within the application [to]
        make equal progress" -- this is the direct measurement.
        """
        if not self.thread_compute_us or max(self.thread_compute_us) == 0:
            return 1.0
        return min(self.thread_compute_us) / max(self.thread_compute_us)

    def as_dict(self) -> dict:
        """All measured fields as a plain JSON-able dict.

        Results are plain dataclasses of ints/strs/lists, so they both
        pickle (crossing process boundaries in
        :mod:`repro.harness.parallel`) and serialize canonically --
        ``json.dumps(r.as_dict(), sort_keys=True)`` is the byte-exact
        form the serial-vs-parallel determinism tests compare.

        Built field by field with the lists copied: the same dict as
        ``dataclasses.asdict`` without its recursive deep copy, which
        dominated :meth:`canonical_json` and with it every store
        ``put``/``get``.  A new field must be added here too (a test
        holds this against ``asdict``).
        """
        return {
            "app_name": self.app_name,
            "balancer": self.balancer,
            "n_cores": self.n_cores,
            "n_threads": self.n_threads,
            "seed": self.seed,
            "elapsed_us": self.elapsed_us,
            "total_work_us": self.total_work_us,
            "migrations": self.migrations,
            "thread_exec_us": list(self.thread_exec_us),
            "thread_compute_us": list(self.thread_compute_us),
            "thread_finish_us": list(self.thread_finish_us),
            "system_migrations": self.system_migrations,
        }

    def canonical_json(self) -> str:
        """The byte-exact serialized form of this result.

        Sorted keys, no whitespace: two results serialize identically
        iff every measured field is identical.  This is the form the
        serial-vs-parallel determinism tests compare and the unit the
        schedule sanitizer's run digests are built from
        (:func:`repro.analysis.sanitizer.run_digest`).
        """
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


@dataclass
class RepeatedResult:
    """The same configuration across seeds (the paper's 10 runs)."""

    runs: list[AppRunResult]

    def __post_init__(self) -> None:
        if not self.runs:
            raise ValueError("RepeatedResult needs at least one run")

    @property
    def times_us(self) -> list[int]:
        return [r.elapsed_us for r in self.runs]

    @property
    def mean_time_us(self) -> float:
        return stats.mean([float(t) for t in self.times_us])

    @property
    def worst_time_us(self) -> int:
        return max(self.times_us)

    @property
    def best_time_us(self) -> int:
        return min(self.times_us)

    @property
    def variation_pct(self) -> float:
        """max/min run-time ratio minus one, in percent (Table 3)."""
        return stats.variation_pct([float(t) for t in self.times_us])

    @property
    def mean_speedup(self) -> float:
        return stats.mean([r.speedup for r in self.runs])

    @property
    def mean_migrations(self) -> float:
        return stats.mean([float(r.migrations) for r in self.runs])

    # -- comparisons (Figure 4 / Table 3 style) -------------------------
    def improvement_avg_pct(self, baseline: "RepeatedResult") -> float:
        """Percent improvement of mean run time over ``baseline``.

        Positive when this configuration is faster on average.
        """
        return (baseline.mean_time_us / self.mean_time_us - 1.0) * 100.0

    def improvement_worst_pct(self, baseline: "RepeatedResult") -> float:
        """Percent improvement of the worst run over baseline's worst."""
        return (baseline.worst_time_us / self.worst_time_us - 1.0) * 100.0
