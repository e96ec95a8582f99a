"""Figure 2: balance interval vs synchronization granularity.

Paper setup: "Three threads on two cores on Intel Tigerton, fixed
amount of computation per thread, with barriers at the interval shown
on the x-axis" -- the modified EP that executes an increasing number of
barriers.  Findings to reproduce:

* more frequent balancing improves performance for this CPU-bound,
  tiny-footprint benchmark (20 ms is best for EP);
* slowdown vs one-thread-per-core approaches the analytical 3/2 bound
  for coarse barriers (the paper's y-axis is normalized run time,
  between 1.3x and 1.55x);
* very fine barriers (S below the Section 4 threshold) erase the
  benefit: the slowdown drifts toward the unbalanced 2.0.

Scaling: per-thread compute is 0.5 s instead of ~27 s; barrier periods
keep the paper's x-axis magnitudes.
"""

from repro.harness import report
from repro.harness.scenarios import balance_interval_sweep

BARRIER_PERIODS_US = [53, 440, 3_400, 27_000, 216_000]
BALANCE_INTERVALS_US = [20_000, 50_000, 100_000, 200_000, 400_000]
TOTAL_US = 500_000
SEEDS = range(3)


def run_sweep():
    grid = balance_interval_sweep(
        BARRIER_PERIODS_US, BALANCE_INTERVALS_US, total_compute_us=TOTAL_US,
        seeds=SEEDS,
    )
    return {key: rr.mean_time_us for key, rr in grid.items()}


def test_fig2_balance_interval_sweep(once):
    times = once(run_sweep)
    # one-per-core reference: each thread alone computes TOTAL_US; with
    # 3 threads of TOTAL_US on 2 cores the capacity bound is 1.5x
    ref = TOTAL_US

    slowdown = {
        k: v / ref for k, v in times.items()
    }

    # -- shape checks ----------------------------------------------------
    # (a) for coarse enough barriers, frequent balancing approaches the
    #     capacity bound of 1.5 and stays well below the unbalanced 2.0
    best_coarse = slowdown[(216_000, 20_000)]
    assert best_coarse < 1.75

    # (b) 20 ms balancing beats 400 ms for the coarse-grained points
    #     ("Increasing the frequency of migrations ... leads to improved
    #     performance" for EP)
    for period in (27_000, 216_000):
        assert slowdown[(period, 20_000)] <= slowdown[(period, 400_000)] + 0.02

    # (c) ultra-fine barriers (53 us << threshold) gain little: the run
    #     sits closer to the unbalanced 2.0 than the balanced 1.5
    assert slowdown[(53, 100_000)] > 1.6

    # -- render ----------------------------------------------------------
    print()
    columns = {
        f"B={b // 1000}ms": [slowdown[(p, b)] for p in BARRIER_PERIODS_US]
        for b in BALANCE_INTERVALS_US
    }
    print(report.series(
        "inter-barrier (us)", BARRIER_PERIODS_US, columns,
        title="Figure 2: slowdown vs one-per-core, 3 threads on 2 cores "
              "(capacity bound 1.5, unbalanced 2.0)",
    ))
