"""Experiment harness: assemble, run, repeat, report.

* :mod:`repro.harness.experiment` -- ``run_app`` builds a System with
  one of the named balancer modes (``speed``, ``load``, ``pinned``,
  ``dwrr``, ``ule``, ``none``), runs an application (plus optional
  co-runners) and returns an :class:`~repro.metrics.AppRunResult`;
  ``repeat_run`` is the paper's ten-seed repetition.
* :mod:`repro.harness.parallel` -- :class:`RunSpec`, the one
  description of a run, and the process-pool fan-out for batches of
  them (``repeat_run(workers=N)`` and the figure functions route
  through it); results are bit-identical to serial execution.
* :mod:`repro.harness.bench` -- perf trajectory tracking behind the
  ``repro bench`` CLI (``BENCH_<label>.json`` baselines).
* :mod:`repro.harness.scenarios` -- the named configurations behind
  each figure and table of the paper.
* :mod:`repro.harness.report` -- plain-text renderings of the paper's
  tables and figure series, used by the benchmark suite's output.
"""

from repro.harness.experiment import (
    BALANCER_MODES,
    repeat_run,
    run_app,
)
from repro.harness.parallel import (
    RunSpec,
    map_specs,
    run_spec,
    run_traced,
)
from repro.harness import bench, report, scenarios

__all__ = [
    "BALANCER_MODES",
    "RunSpec",
    "bench",
    "map_specs",
    "repeat_run",
    "report",
    "run_app",
    "run_spec",
    "run_traced",
    "scenarios",
]
