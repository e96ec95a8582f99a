"""Figure 4: per-benchmark improvement of SPEED over LOAD.

The paper plots, per NPB benchmark across core counts, the improvement
of SPEED over LOAD for the worst run (SB_WORST/LB_WORST, up to ~70%)
and the average over 10 runs (SB_AVG/LB_AVG, up to ~50%), plus the
run-to-run variation of each (SB_VARIATION ~2%, LB_VARIATION up to
~67%).

Shape targets:

* average improvement >= 0 for the coarse-grained benchmarks, and
  large (tens of %) for the oversubscribed non-divisor core counts;
* worst-case improvement >= average improvement trendwise (SPEED's
  stability pays most in the tail);
* SPEED variation far below LOAD variation overall.

Scaling: 6 seeds (paper: 10); per-thread compute 0.5 s; core counts
{6, 10, 14} (the interesting non-divisors).
"""

from repro.harness import report
from repro.harness.scenarios import npb_improvement
from repro.metrics import stats

BENCHES = ["bt.A", "cg.B", "ft.B", "is.C"]
CORE_COUNTS = [6, 10, 14]
SEEDS = range(6)
TOTAL_US = 500_000


def run_grid():
    return npb_improvement(
        BENCHES, CORE_COUNTS, ("speed", "load"), seeds=SEEDS,
        total_compute_us=TOTAL_US,
    )


def test_fig4_npb_improvements(once):
    grid = once(run_grid)

    rows = []
    avg_improvements = []
    worst_improvements = []
    speed_variations = []
    load_variations = []
    for bench in BENCHES:
        for n_cores in CORE_COUNTS:
            sb = grid[(bench, n_cores, "speed")]
            lb = grid[(bench, n_cores, "load")]
            avg = sb.improvement_avg_pct(lb)
            worst = sb.improvement_worst_pct(lb)
            rows.append([
                bench, n_cores, avg, worst, sb.variation_pct, lb.variation_pct,
            ])
            avg_improvements.append(avg)
            worst_improvements.append(worst)
            speed_variations.append(sb.variation_pct)
            load_variations.append(lb.variation_pct)

    print()
    print(report.table(
        ["bench", "cores", "SB/LB avg %", "SB/LB worst %",
         "SB var %", "LB var %"],
        rows,
        title="Figure 4: SPEED vs LOAD improvement per NPB benchmark "
              "(UPC-style yield barriers, Tigerton)",
    ))
    print(report.kv_block("Overall", {
        "mean avg improvement %": stats.mean(avg_improvements),
        "max avg improvement %": max(avg_improvements),
        "mean worst-case improvement %": stats.mean(worst_improvements),
        "max worst-case improvement %": max(worst_improvements),
        "mean SPEED variation %": stats.mean(speed_variations),
        "mean LOAD variation %": stats.mean(load_variations),
    }))

    # -- shape assertions -------------------------------------------------
    # large average wins exist (paper: up to ~50%)
    assert max(avg_improvements) > 25.0
    # wins on average across the workload
    assert stats.mean(avg_improvements) > 5.0
    # worst-case improvements reach further than average ones (paper: 70%)
    assert max(worst_improvements) > 25.0
    # stability: SPEED's variation far below LOAD's
    assert stats.mean(speed_variations) < 10.0
    assert stats.mean(speed_variations) < 0.7 * stats.mean(load_variations)
