"""Table 2: selected NAS parallel benchmarks.

"RSS is the average resident set size per core as measured by Linux
during a run"; the table reports each benchmark's 16-core speedup on
both machines and its inter-barrier times for the UPC and OpenMP
implementations.

We regenerate the measured columns by running each catalog benchmark
with 16 threads on all 16 cores of both machines (statically balanced,
sleeping waiters -- the benign configuration the paper's numbers
represent) and compare against the paper's reported speedups.  The
match is calibrated for the machine-level trend (memory-bound codes
scale far below 16, and scale better on Barcelona's per-node memory
controllers than on Tigerton's shared front-side buses); per-benchmark
residuals are recorded in EXPERIMENTS.md.
"""

import pytest

from repro.apps.workloads import NAS_CATALOG
from repro.harness import report
from repro.harness.scenarios import npb_improvement

BENCHES = ["bt.A", "cg.B", "ft.B", "is.C", "sp.A", "ep.C"]
TOTAL_US = 400_000


def measure():
    out = {}
    for machine in ("tigerton", "barcelona"):
        grid = npb_improvement(
            BENCHES, [16], ["pinned"], wait="sleep", machine=machine,
            seeds=[0], total_compute_us=TOTAL_US,
        )
        for (bench, _, _), rr in grid.items():
            out[(bench, machine)] = rr.runs[0].speedup
    return out


def test_table2_nas(once):
    measured = once(measure)

    rows = []
    for bench in BENCHES:
        entry = NAS_CATALOG[bench]
        rows.append([
            bench,
            entry.rss_per_core_gb,
            entry.paper_speedup16_tigerton,
            measured[(bench, "tigerton")],
            entry.paper_speedup16_barcelona,
            measured[(bench, "barcelona")],
            (entry.inter_barrier_upc_us or 0) / 1000,
            (entry.inter_barrier_omp_us or 0) / 1000,
        ])
    print()
    print(report.table(
        ["bench", "RSS GB/core", "T paper", "T ours", "B paper", "B ours",
         "barrier UPC ms", "barrier OMP ms"],
        rows,
        title="Table 2: NAS benchmarks, 16-core speedups "
              "(paper vs regenerated) and inter-barrier times",
    ))

    for bench in BENCHES:
        entry = NAS_CATALOG[bench]
        t_ours = measured[(bench, "tigerton")]
        b_ours = measured[(bench, "barcelona")]
        # per-benchmark: within 35% of the paper's absolute number
        assert t_ours == pytest.approx(entry.paper_speedup16_tigerton, rel=0.35), bench
        assert b_ours == pytest.approx(entry.paper_speedup16_barcelona, rel=0.35), bench
        # machine trend: every memory-bound code scales better on
        # Barcelona; EP is machine-agnostic
        if entry.mem_intensity > 0:
            assert b_ours > t_ours, bench
        else:
            assert b_ours == pytest.approx(t_ours, rel=0.05)

    # cross-benchmark ordering on Tigerton: EP >> sp.A > the
    # bandwidth-bound group, as in the paper's column
    assert measured[("ep.C", "tigerton")] > 14
    assert measured[("sp.A", "tigerton")] > measured[("ft.B", "tigerton")]
    assert measured[("sp.A", "tigerton")] > measured[("is.C", "tigerton")]
