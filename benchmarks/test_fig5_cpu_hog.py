"""Figure 5: EP sharing the machine with a cpu-hog pinned to core 0.

"EP sharing with an unrelated task that is pinned to the first core
(0) on the system.  The task is a compute-intensive 'cpu-hog' that
uses no memory."

Shape targets:

* One-per-core: "the whole parallel application is slowed by 50%
  because the cpu-hog always takes half of core 0";
* PINNED: "initially better because EP gets more of a share of core 0
  (8/9 at two cores) ... until at 16 cores EP is running at half
  speed";
* LOAD: "good because LOAD can balance applications that sleep" (the
  OpenMP benchmark) -- "there is no static balance possible because the
  total number of tasks (17) is a prime";
* SPEED: "near-optimal performance at all core counts, with very low
  performance variation (at most 6% compared with LOAD of up to 20%)".
"""

import pytest

from repro.harness import report
from repro.harness.scenarios import cpu_hog_series

CORE_COUNTS = [2, 4, 8, 12, 16]
SEEDS = range(3)
PER_THREAD_US = 1_000_000  # at 16 threads: 16 s of total app compute


def run_all():
    # OpenMP-style sleeping waiters (the scenario's default wait)
    grid = dict(core_counts=CORE_COUNTS, seeds=SEEDS, total_compute_us=PER_THREAD_US)
    return {
        "One-per-core": cpu_hog_series("pinned", one_per_core=True, **grid),
        "SPEED": cpu_hog_series("speed", **grid),
        "LOAD": cpu_hog_series("load", **grid),
        "PINNED": cpu_hog_series("pinned", **grid),
    }


def test_fig5_cpu_hog(once):
    series = once(run_all)

    print()
    print(report.series(
        "cores", CORE_COUNTS,
        {
            name: [vals[c].mean_speedup for c in CORE_COUNTS]
            for name, vals in series.items()
        },
        title="Figure 5: EP + cpu-hog on core 0 (speedup; the hog takes "
              "half of core 0, so the fair ceiling is cores - 0.5)",
    ))
    print(report.series(
        "cores", CORE_COUNTS,
        {
            name: [vals[c].variation_pct for c in CORE_COUNTS]
            for name, vals in series.items()
        },
        title="Run-to-run variation (%)",
    ))

    one = series["One-per-core"]
    speed = series["SPEED"]
    load = series["LOAD"]
    pinned = series["PINNED"]

    # One-per-core: app held to the core-0 thread at half speed
    for c in CORE_COUNTS:
        assert one[c].mean_speedup == pytest.approx(c / 2, rel=0.08)

    # PINNED: degrades from ~(2 / (1 + 1/8))... i.e. mild at low core
    # counts (hog is 1 of 9 tasks on core 0 at 2 cores) to half speed
    # at 16 (ceiling c/2); intermediate counts better than one-per-core
    assert pinned[2].mean_speedup > 1.6  # 8 EP threads vs 1 hog on core 0
    assert pinned[16].mean_speedup == pytest.approx(8.0, rel=0.08)
    for c in (2, 4, 8):
        assert pinned[c].mean_speedup > one[c].mean_speedup

    # LOAD recovers via sleeping waiters and idle pulls
    assert load[16].mean_speedup > 10.0

    # SPEED near the fair ceiling everywhere, and best or tied.  (LOAD
    # with sleeping waiters is genuinely strong here -- "performance
    # with LOAD is good because LOAD can balance applications that
    # sleep" -- so the dominance margin is a tie band, not a blowout.)
    for c in CORE_COUNTS:
        ceiling = c - 0.5
        assert speed[c].mean_speedup > 0.75 * ceiling
        assert speed[c].mean_speedup >= 0.9 * max(
            one[c].mean_speedup, load[c].mean_speedup, pinned[c].mean_speedup
        )

    # stability: SPEED's spread stays moderate (paper: "at most 6%
    # compared with LOAD of up to 20%"; our scaled runs amplify the
    # percentage because absolute times are ~10x shorter)
    for c in CORE_COUNTS:
        assert speed[c].variation_pct < 15.0
