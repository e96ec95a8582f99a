"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each workload runs once at ``--tiny`` scale, untraced and traced, and
must print exactly the metrics BENCHMARK.json names, with their units.
The output checks must reject planted bad outputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
os.environ["REPRO_NATIVE_CACHE"] = str(ROOT / ".bench_build" / "native")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calib, workloads  # noqa: E402
from repro.apps.workloads import AppSpec  # noqa: E402
from repro.harness.parallel import RunSpec, run_spec  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert f"seed={seed}" in lines[-2]
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    doc = _run(workload, 0)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_prints_every_layer_metric(workload):
    doc = _run(workload, 1)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    if workload == "figure-cold":
        # tracing is off on figure-cold: the trace layer must read zero
        assert metrics["trace.segments"] == metrics["trace.record_s"] == 0
        assert metrics["sim.events"] > 0 and metrics["sim.native.fused_ratio"] > 0
    if workload == "figure-audit":
        assert metrics["trace.segments"] > 0 and metrics["analysis.findings"] == 0
    if workload == "serve-mixed":
        assert metrics["serve.executed"] > 0 and metrics["serve.rejected"] == 0


COUNTS = [m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "bytes")
          and m["name"] != "bench.latency_samples"]


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_for_a_seed(workload):
    a, b = (_run(workload, 1, seed=5)["metrics"] for _ in range(2))
    assert {k: a[k]["value"] for k in COUNTS} == {k: b[k]["value"] for k in COUNTS}


def test_times_are_scaled_by_the_samples_beside_them(tmp_path):
    slow = workloads.Pass(2.0, [workloads.Op("heap", 0.5), workloads.Op("native", 1.5)],
                          samples=[2 * calib.REF_S] * 3)
    fast = workloads.Pass(1.0, [workloads.Op("heap", 0.25), workloads.Op("native", 0.75)],
                          samples=[calib.REF_S] * 3)
    # the same work on a host half as fast reads the same once normalised
    a = workloads.end_to_end([slow, slow, slow], 1.0, 50.0)
    b = workloads.end_to_end([fast, fast, fast], 1.0, 50.0)
    for name in ("figure_s", "figure_heap_s", "figure_native_s", "latency_p50_ms", "jobs_per_s"):
        assert a[name] == pytest.approx(b[name])
    assert b["figure_s"] == 1.0 and b["jobs_per_s"] == 2.0
    # an uncalibrated pass (traced runs) keeps its measured times
    assert workloads.Pass(1.0).factor == 1.0
    # an operation with samples of its own is scaled by them, not the pass's
    own = workloads.Pass(1.0, [workloads.Op("heap", 1.0, factor=0.5)], samples=[calib.REF_S])
    assert own.scaled(own.ops[0]) == 0.5 and own.scaled(workloads.Op("heap", 1.0)) == 1.0
    # the samples beside work that began after the pass's first `at` samples
    wl = workloads.FigureCold(seed=1, tiny=True, workdir=tmp_path)
    assert wl.around(0) is None
    wl.samples = [calib.REF_S, 2 * calib.REF_S, 4 * calib.REF_S]
    assert wl.around(0) == 1.0
    assert wl.around(1) == pytest.approx(2 / 3)
    assert wl.around(3) == 0.25


def _tiny(cls, tmp_path):
    wl = cls(seed=1, tiny=True, workdir=tmp_path)
    wl.setup()
    return wl


def test_warm_check_rejects_a_flipped_byte(tmp_path):
    wl = _tiny(workloads.FigureWarm, tmp_path)
    wl.run_pass()
    entry = sorted(wl.root.rglob("entry.json"))[0]
    raw = bytearray(entry.read_bytes())
    at = raw.index(b'"elapsed_us"') + len(b'"elapsed_us": ')
    raw[at] = ord("9") if raw[at] != ord("9") else ord("8")
    entry.write_bytes(bytes(raw))
    with pytest.raises(workloads.CheckError, match="recomputed"):
        wl.run_pass()


def test_engine_check_rejects_differing_halves():
    spec = RunSpec.make("tigerton", AppSpec(n_threads=2, total_compute_us=1_000),
                        balancer="speed", cores=2, seed=0)
    other = RunSpec.make("tigerton", AppSpec(n_threads=2, total_compute_us=1_000),
                         balancer="speed", cores=2, seed=1)
    same, differ = run_spec(spec), run_spec(other)
    workloads.check_engines_agree({"cell": {"heap": [same], "native": [same]}})
    with pytest.raises(workloads.CheckError, match="heap and native results differ"):
        workloads.check_engines_agree({"cell": {"heap": [same], "native": [differ]}})


def test_cold_pass_rejects_a_native_half_that_differs(tmp_path, monkeypatch):
    wl = _tiny(workloads.FigureCold, tmp_path)
    grid = wl.grid
    planted = []

    def grid_with_a_bad_cell(traced):
        cells = grid(traced)
        cell, by_engine = cells[0]
        # the native half is another configuration's output
        by_engine["native"] = [
            RunSpec.make("tigerton", AppSpec(n_threads=2, total_compute_us=1_000),
                         balancer="speed", cores=2, seed=s.seed, engine="native")
            for s in by_engine["native"]
        ]
        planted.append(cell)
        return cells

    monkeypatch.setattr(wl, "grid", grid_with_a_bad_cell)
    with pytest.raises(workloads.CheckError, match="heap and native results differ") as exc:
        wl.run_pass()
    assert planted and planted[0] in str(exc.value)
