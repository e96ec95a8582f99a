"""Correctness tooling for the simulator: static analysis, invariants, sanitizer.

The whole value of this reproduction rests on two properties that
ordinary tests check only indirectly:

* **bit-reproducibility** -- the integer-microsecond engine plus the
  stream-separated :class:`~repro.sim.rng.SimRng` make every run a pure
  function of its seed.  One stray iteration over an unordered ``set``
  in a scheduling decision path, one ``time.time()`` call, or one float
  creeping into an engine timestamp silently breaks that.
* **the paper's invariants** -- ``speed = t_exec / t_real`` is only
  meaningful if ``t_exec <= t_real`` and busy time is conserved; the
  speed balancer's two-interval migration block and NUMA-domain fence
  are only reproductions of the artifact if they actually hold.

This package provides three layers:

* :mod:`repro.analysis.static` -- the static analyzer
  (``python -m repro.analysis src/repro``): one parse of the source
  tree and one rule registry (:mod:`repro.analysis.rules`) of per-file
  SIM rules (:mod:`~repro.analysis.lint`), with inline
  ``# sim-lint: ignore[...]`` comments as the only escape hatch;
* :mod:`repro.analysis.invariants` -- an opt-in runtime
  :class:`~repro.analysis.invariants.InvariantChecker` hooked into
  :class:`~repro.sim.engine.Engine` and :class:`~repro.system.System`
  (``repro check --invariants``), enabled for the whole test suite by
  a conftest fixture;
* :mod:`repro.analysis.sanitizer` -- a post-hoc schedule sanitizer
  (``repro sanitize``) that recomputes races, double charges and
  conservation from the *recorded trace* (rules SAN001..SAN007) and
  replays the recorded migration history against the speed balancer's
  policy, with :mod:`repro.analysis.differential` re-running scenarios
  under perturbations (hash seed, observers, worker processes) and
  comparing canonical digests (SAN008).

Importing the package loads only the runtime layers: the store, the
serve workers and the benchmark import the sanitizer and must not pay
for the AST tooling.  See ``docs/analysis.md`` for the rule catalogues.
"""

from __future__ import annotations

from repro.analysis.invariants import (
    InvariantConfig,
    InvariantChecker,
    InvariantViolation,
    install_invariant_checker,
)
from repro.analysis.sanitizer import (
    SAN_RULES,
    PullPolicy,
    SanFinding,
    analyze_trace,
    run_digest,
    sanitize_system,
    trace_digest,
)

__all__ = [
    "InvariantConfig",
    "InvariantChecker",
    "InvariantViolation",
    "install_invariant_checker",
    "SAN_RULES",
    "SanFinding",
    "PullPolicy",
    "analyze_trace",
    "sanitize_system",
    "trace_digest",
    "run_digest",
]
