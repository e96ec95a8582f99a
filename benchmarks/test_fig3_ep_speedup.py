"""Figure 3: UPC EP class C speedup on Tigerton and Barcelona.

"The benchmark is compiled with 16 threads and run on the number of
cores indicated on the x-axis.  We report the average speedup over 10
runs."  Series: One-per-core (ideal), SPEED, DWRR, FreeBSD (ULE),
LOAD-SLEEP, LOAD-YIELD, PINNED on Tigerton; SPEED-SLEEP, SPEED-YIELD,
LOAD-SLEEP, LOAD-YIELD, One-per-core on Barcelona.

Shape targets (paper):

* One-per-core scales perfectly;
* SPEED is near-optimal at every core count with little variation;
* PINNED "only achieves optimal speedup when 16 mod N = 0";
* LOAD is "often worse than static balancing and highly variable";
* LOAD-SLEEP scales better than LOAD-YIELD;
* ULE tracks PINNED;
* DWRR scales like SPEED up to 8 cores (its 16-on-16 dip is an
  implementation-overhead artifact we do not reproduce; see
  EXPERIMENTS.md).

Scaling: 16 s of total compute (1 s per thread at 16 threads) instead
of class C's tens of seconds -- enough balance intervals for the
Section 4 profitability threshold to be met at every core count; 3
seeds instead of 10 (variability is asserted separately in Table 3's
bench with more seeds).
"""

import pytest

from repro.harness import report
from repro.harness.scenarios import ep_speedup_series

CORE_COUNTS = [1, 2, 4, 6, 8, 10, 12, 14, 15, 16]
SEEDS = range(3)
PER_THREAD_US = 1_000_000  # at 16 threads: 16 s of total app compute

#: series name -> (balancer, wait, one_per_core)
TIGERTON = {
    "One-per-core": ("pinned", "sleep", True),
    "SPEED": ("speed", "yield", False),
    "DWRR": ("dwrr", "yield", False),
    "FreeBSD": ("ule", "yield", False),
    "LOAD-SLEEP": ("load", "sleep", False),
    "LOAD-YIELD": ("load", "yield", False),
    "PINNED": ("pinned", "yield", False),
}
BARCELONA = {
    "One-per-core": ("pinned", "sleep", True),
    "SPEED-SLEEP": ("speed", "sleep", False),
    "SPEED-YIELD": ("speed", "yield", False),
    "LOAD-SLEEP": ("load", "sleep", False),
    "LOAD-YIELD": ("load", "yield", False),
}


def _speedups(machine, series):
    out = {}
    for name, (balancer, wait, one_per_core) in series.items():
        grid = ep_speedup_series(
            machine, balancer, wait, CORE_COUNTS, one_per_core=one_per_core,
            seeds=SEEDS, total_compute_us=PER_THREAD_US,
        )
        out[name] = {c: rr.mean_speedup for c, rr in grid.items()}
    return out


def run_tigerton():
    return _speedups("tigerton", TIGERTON)


def run_barcelona():
    return _speedups("barcelona", BARCELONA)


def _print_figure(title, series):
    print()
    print(report.series(
        "cores", CORE_COUNTS,
        {name: [vals[c] for c in CORE_COUNTS] for name, vals in series.items()},
        title=title,
    ))


def test_fig3_tigerton(once):
    series = once(run_tigerton)
    _print_figure("Figure 3 (left): UPC EP speedup on Tigerton, 16 threads", series)

    ideal = series["One-per-core"]
    speed = series["SPEED"]
    pinned = series["PINNED"]
    ly = series["LOAD-YIELD"]
    ls = series["LOAD-SLEEP"]

    # one-per-core is the scaling reference ("EP scales perfectly")
    for c in CORE_COUNTS:
        assert ideal[c] == pytest.approx(c, rel=0.06)

    # SPEED near-optimal at ALL core counts.  At 14/15 cores a single
    # slow queue must rotate through all 16 threads; with our scaled
    # run length (~1s vs the paper's tens of seconds) only part of the
    # rotation completes, hence the slightly looser bound there.
    for c in CORE_COUNTS:
        floor = {14: 0.78, 15: 0.75}.get(c, 0.85)
        assert speed[c] > floor * c, f"SPEED not near-optimal at {c} cores"

    # PINNED staircase: optimal exactly when 16 mod c == 0
    for c in CORE_COUNTS:
        expected = 16 / -(-16 // c)  # 16 / ceil(16/c)
        assert pinned[c] == pytest.approx(expected, rel=0.07)

    # SPEED beats PINNED and LOAD-YIELD at every non-divisor count.
    # The margin over PINNED is bounded by capacity: at 6 cores the
    # theoretical maximum is 6/5.33 = 1.125x, growing to 15/8 = 1.875x
    # at 15 cores.
    for c, margin in ((6, 1.05), (10, 1.10), (12, 1.15), (14, 1.15), (15, 1.15)):
        assert speed[c] > margin * pinned[c]
        assert speed[c] > margin * ly[c]

    # LOAD-SLEEP >= LOAD-YIELD everywhere, strictly at non-divisors
    for c in CORE_COUNTS:
        assert ls[c] >= 0.95 * ly[c]
    assert ls[12] > 1.2 * ly[12]

    # ULE tracks PINNED ("very similar to the pinned case")
    for c in CORE_COUNTS:
        assert series["FreeBSD"][c] == pytest.approx(pinned[c], rel=0.2)

    # DWRR tracks SPEED at moderate counts (the paper: comparable <= 8).
    # Above 8 cores the paper measured DWRR below SPEED; our idealized
    # DWRR (no kernel lock/scan overheads) instead tracks or slightly
    # exceeds it -- a documented deviation (EXPERIMENTS.md), bounded
    # here so a regression cannot hide behind it.
    for c in (2, 4, 6, 8):
        assert series["DWRR"][c] == pytest.approx(speed[c], rel=0.15)
    for c in (10, 12, 14, 15, 16):
        assert 0.8 * speed[c] < series["DWRR"][c] < 1.3 * speed[c]


def test_fig3_barcelona(once):
    series = once(run_barcelona)
    _print_figure("Figure 3 (right): UPC EP speedup on Barcelona, 16 threads", series)

    ideal = series["One-per-core"]
    sy = series["SPEED-YIELD"]
    ss = series["SPEED-SLEEP"]
    ly = series["LOAD-YIELD"]

    for c in CORE_COUNTS:
        assert ideal[c] == pytest.approx(c, rel=0.06)

    # the paper's headline for Barcelona: with SPEED, yield ~= sleep.
    # (Sleep runs a touch lower -- the paper itself measured SPEED ~3%
    # behind when tasks sleep, as sleeping threads' near-zero interval
    # speeds mislead the balancer.)
    for c in CORE_COUNTS:
        assert sy[c] == pytest.approx(ss[c], rel=0.25)
    mean_ratio = sum(sy[c] / ss[c] for c in CORE_COUNTS) / len(CORE_COUNTS)
    assert 0.9 < mean_ratio < 1.2

    # SPEED-YIELD beats LOAD-YIELD at the non-divisor counts even with
    # NUMA migrations blocked (thanks to NUMA-aware initial pinning)
    for c in (6, 10, 12, 14):
        assert sy[c] > 1.1 * ly[c]
