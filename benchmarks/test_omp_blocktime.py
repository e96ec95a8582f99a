"""Section 6.2's OpenMP workload: KMP_BLOCKTIME interactions.

The paper controls the Intel OpenMP barrier via ``KMP_BLOCKTIME``:
DEF = spin 200 ms then sleep (the default), INF = poll forever.
Claims to reproduce:

* "the best performance for the OpenMP workload is obtained when
  running in polling mode with SPEED ... SPEED achieves a 11% speedup
  across the whole workload when compared to LB_INF";
* "Our current implementation of speed balancing does not have
  mechanisms to handle sleeping processes and SPEED slightly decreases
  the performance when tasks sleep.  Comparing SB_DEF with LB_DEF
  shows an overall performance decrease of 3%";
* class S "behavior at scale is largely determined by barriers":
  barrier-dominated tiny classes show the largest SPEED-vs-LOAD gaps
  with polling barriers (the paper: 45% on Barcelona at 16 cores).

The OpenMP flavor uses Table 2's OMP inter-barrier times (coarser than
UPC's: the Intel runtime aggregates loop barriers).
"""

from repro.apps.spmd import SpmdApp
from repro.apps.workloads import WAIT_POLICIES
from repro.harness import report
from repro.harness.experiment import repeat_run
from repro.harness.scenarios import npb_improvement
from repro.metrics import stats
from repro.topology import presets

BENCHES = ["bt.A", "ft.B", "is.C"]
CORE_COUNTS = [10, 14]
SEEDS = range(4)
TOTAL_US = 600_000


def run_grid():
    # DEF = omp-default (spin 200 ms, then sleep); INF = spin (poll forever)
    return {
        wait: npb_improvement(
            BENCHES, CORE_COUNTS, ("speed", "load"), wait=wait, seeds=SEEDS,
            total_compute_us=TOTAL_US, flavor="omp",
        )
        for wait in ("omp-default", "spin")
    }


def run_class_s():
    """Tiny 'class S': 0.5 ms of compute per 2 ms barrier period."""
    out = {}
    for mode in ("speed", "load"):
        def factory(system):
            return SpmdApp(
                system, "classS", 16, work_us=2_000, iterations=50,
                wait_policy=WAIT_POLICIES["spin"],
            )

        out[mode] = repeat_run(
            presets.barcelona, factory, mode, cores=16, seeds=SEEDS
        )
    return out


def test_omp_blocktime_workload(once):
    grid, class_s = once(lambda: (run_grid(), run_class_s()))

    rows = []
    inf_improvements = []
    def_changes = []
    for bench in BENCHES:
        for n_cores in CORE_COUNTS:
            sb_inf = grid["spin"][(bench, n_cores, "speed")]
            lb_inf = grid["spin"][(bench, n_cores, "load")]
            sb_def = grid["omp-default"][(bench, n_cores, "speed")]
            lb_def = grid["omp-default"][(bench, n_cores, "load")]
            inf_improvements.append(sb_inf.improvement_avg_pct(lb_inf))
            def_changes.append(sb_def.improvement_avg_pct(lb_def))
            rows.append([
                bench, n_cores,
                sb_inf.improvement_avg_pct(lb_inf),
                sb_def.improvement_avg_pct(lb_def),
            ])
    print()
    print(report.table(
        ["bench", "cores", "SB_INF vs LB_INF %", "SB_DEF vs LB_DEF %"],
        rows,
        title="Section 6.2: OpenMP workload, KMP_BLOCKTIME default vs infinite",
    ))
    print(report.kv_block("Overall", {
        "SPEED vs LOAD, polling barriers (paper: +11%)":
            stats.mean(inf_improvements),
        "SPEED vs LOAD, default barriers (paper: -3%)":
            stats.mean(def_changes),
        "class S on Barcelona, polling (paper: +45%)":
            class_s["speed"].improvement_avg_pct(class_s["load"]),
    }))

    # with polling barriers SPEED clearly wins
    assert stats.mean(inf_improvements) > 5.0
    # with blocktime-then-sleep barriers the gap shrinks toward zero
    # (the paper saw a 3% decrease); allow a band around parity
    assert -12.0 < stats.mean(def_changes) < stats.mean(inf_improvements)
    # barrier-dominated class S with polling: SPEED >= LOAD
    assert class_s["speed"].improvement_avg_pct(class_s["load"]) > -5.0
