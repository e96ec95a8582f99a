"""Tests for the perf-trajectory harness (``repro bench``)."""

import json

import pytest

from repro.harness import bench
from repro.sim.backends import backend_available


def fast_results():
    return [
        bench.BenchResult(name="engine_throughput", wall_s=0.5,
                          events=100_000, rounds=3),
        bench.BenchResult(name="ep_dedicated", wall_s=2.0,
                          events=5_000, rounds=3),
    ]


class TestRunBenches:
    def test_quick_suite_runs_every_case(self):
        seen = []
        results = bench.run_benches(quick=True, rounds=1,
                                    progress=lambda r: seen.append(r.name))
        assert [r.name for r in results] == bench.bench_names()
        assert seen == bench.bench_names()
        for r in results:
            assert r.wall_s > 0
            assert r.events > 0
            assert r.events_per_sec > 0

    def test_event_counts_are_deterministic(self):
        a = bench.run_benches(quick=True, rounds=1)
        b = bench.run_benches(quick=True, rounds=1)
        assert [r.events for r in a] == [r.events for r in b]

    def test_bad_rounds_rejected(self):
        with pytest.raises(ValueError, match="rounds"):
            bench.run_benches(quick=True, rounds=0)


class TestPayloads:
    def test_roundtrip(self, tmp_path):
        payload = bench.to_payload(fast_results(), label="t", quick=True)
        path = bench.write_payload(payload, out_dir=tmp_path)
        assert path.name == "BENCH_t.json"
        assert bench.load_payload(path) == payload

    def test_payload_shape(self):
        payload = bench.to_payload(fast_results(), label="x", quick=False)
        assert payload["schema"] == bench.BENCH_SCHEMA
        entry = payload["benches"]["engine_throughput"]
        assert entry["wall_s"] == 0.5
        assert entry["events"] == 100_000
        assert entry["events_per_sec"] == 200_000.0

    def test_unknown_schema_rejected(self, tmp_path):
        p = tmp_path / "BENCH_bad.json"
        p.write_text(json.dumps({"schema": 99, "benches": {}}))
        with pytest.raises(ValueError, match="schema"):
            bench.load_payload(p)

    @pytest.mark.parametrize("label", [
        "", "a b", "a/b", "../escape", "é", "a.b", "lab:el",
    ])
    def test_invalid_label_rejected(self, label):
        # labels become the BENCH_<label>.json filename
        with pytest.raises(ValueError, match="label"):
            bench.to_payload(fast_results(), label=label, quick=True)

    @pytest.mark.parametrize("label", ["ci", "base-line_2", "A1"])
    def test_valid_labels_accepted(self, label):
        assert bench.to_payload(fast_results(), label=label,
                                quick=True)["label"] == label


class TestCompare:
    @staticmethod
    def payload_with_wall(wall_s):
        return bench.to_payload(
            [bench.BenchResult(name="ep_dedicated", wall_s=wall_s,
                               events=1000, rounds=1)],
            label="t", quick=True)

    def payloads(self, old_wall, new_wall):
        return self.payload_with_wall(old_wall), self.payload_with_wall(new_wall)

    def test_within_threshold_ok(self):
        old, new = self.payloads(1.0, 1.2)
        (c,) = bench.compare_payloads(old, new, threshold_pct=25.0)
        assert not c.regressed
        assert c.delta_pct == pytest.approx(20.0)

    def test_beyond_threshold_regresses(self):
        old, new = self.payloads(1.0, 1.3)
        (c,) = bench.compare_payloads(old, new, threshold_pct=25.0)
        assert c.regressed

    def test_speedups_never_regress(self):
        old, new = self.payloads(1.0, 0.5)
        (c,) = bench.compare_payloads(old, new, threshold_pct=25.0)
        assert not c.regressed
        assert c.delta_pct == pytest.approx(-50.0)

    def test_quick_flavour_mismatch_refused(self):
        old, new = self.payloads(1.0, 1.0)
        old["quick"] = False
        with pytest.raises(ValueError, match="quick"):
            bench.compare_payloads(old, new)

    def test_new_benches_skipped(self):
        old, new = self.payloads(1.0, 1.0)
        del old["benches"]["ep_dedicated"]
        assert bench.compare_payloads(old, new) == []


class TestBenchCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(["bench", "--rounds", "1", "--quick", *argv])

    def test_writes_baseline(self, tmp_path, capsys):
        assert self.run_cli("--out", str(tmp_path), "--label", "ci") == 0
        payload = bench.load_payload(tmp_path / "BENCH_ci.json")
        assert payload["quick"] is True
        assert set(payload["benches"]) == set(bench.bench_names())

    def test_missing_baseline_is_not_fatal(self, tmp_path, capsys):
        rc = self.run_cli("--out", str(tmp_path),
                          "--baseline", str(tmp_path / "nope.json"))
        assert rc == 0
        assert "skipping comparison" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, capsys):
        assert self.run_cli("--out", str(tmp_path), "--label", "old") == 0
        baseline = tmp_path / "BENCH_old.json"
        payload = bench.load_payload(baseline)
        for entry in payload["benches"].values():
            entry["wall_s"] /= 100.0  # pretend the past was 100x faster
        baseline.write_text(json.dumps(payload))
        rc = self.run_cli("--out", str(tmp_path), "--label", "new",
                          "--baseline", str(baseline))
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_comparison_passes_against_self(self, tmp_path, capsys):
        assert self.run_cli("--out", str(tmp_path), "--label", "old") == 0
        baseline = bench.load_payload(tmp_path / "BENCH_old.json")
        # loosen wall times so scheduler noise cannot flake the test
        for entry in baseline["benches"].values():
            entry["wall_s"] *= 10.0
        (tmp_path / "BENCH_old.json").write_text(json.dumps(baseline))
        rc = self.run_cli("--out", str(tmp_path), "--label", "new",
                          "--baseline", str(tmp_path / "BENCH_old.json"))
        assert rc == 0


class TestBenchComparePair:
    """``repro bench --compare A B``: the head-to-head two-payload form."""

    def write(self, tmp_path, label, wall_s, events=100, engine="heap"):
        results = [
            bench.BenchResult(name="ep_dedicated", wall_s=wall_s,
                              events=events, rounds=3),
        ]
        payload = bench.to_payload(results, label=label, quick=True,
                                   engine=engine)
        return str(bench.write_payload(payload, out_dir=tmp_path))

    def run_cli(self, *argv):
        from repro.cli import main

        return main(["bench", *argv])

    def test_speedup_table_and_exit_zero(self, tmp_path, capsys):
        a = self.write(tmp_path, "heapref", 2.5, engine="heap")
        b = self.write(tmp_path, "native", 1.0, engine="native")
        rc = self.run_cli("--compare", a, b)
        out = capsys.readouterr().out
        assert rc == 0
        assert "speedup" in out
        assert "2.5" in out  # 2.5s -> 1.0s is a 2.5x speedup
        assert "heapref" in out and "native" in out

    def test_regression_beyond_threshold_fails(self, tmp_path, capsys):
        a = self.write(tmp_path, "ref", 1.0)
        b = self.write(tmp_path, "cand", 1.5)
        assert self.run_cli("--compare", a, b) == 1
        assert "REGRESSED" in capsys.readouterr().out
        # a looser threshold lets the same pair pass
        assert self.run_cli("--compare", a, b, "--threshold", "60") == 0

    def test_events_mismatch_is_exit_2(self, tmp_path, capsys):
        a = self.write(tmp_path, "ref", 1.0, events=100)
        b = self.write(tmp_path, "cand", 1.0, events=101)
        assert self.run_cli("--compare", a, b) == 2
        assert "determinism regression" in capsys.readouterr().err
        # --wall-only skips the tripwire (and the walls match)
        assert self.run_cli("--compare", a, b, "--wall-only") == 0

    def test_events_only_stops_before_wall_check(self, tmp_path, capsys):
        a = self.write(tmp_path, "ref", 1.0)
        b = self.write(tmp_path, "cand", 99.0)  # would regress on wall
        assert self.run_cli("--compare", a, b, "--events-only") == 0

    def test_pair_refuses_baseline(self, tmp_path, capsys):
        a = self.write(tmp_path, "ref", 1.0)
        b = self.write(tmp_path, "cand", 1.0)
        assert self.run_cli("--compare", a, b, "--baseline", a) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_three_payloads_rejected(self, tmp_path, capsys):
        a = self.write(tmp_path, "ref", 1.0)
        assert self.run_cli("--compare", a, a, a) == 2

    def test_single_payload_still_requires_baseline(self, tmp_path, capsys):
        a = self.write(tmp_path, "ref", 1.0)
        assert self.run_cli("--compare", a) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_events_and_wall_only_mutually_exclusive(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["bench", "--events-only", "--wall-only"])
        assert "not allowed with" in capsys.readouterr().err


class TestBenchEngineFlag:
    def test_payload_records_engine(self, tmp_path):
        from repro.cli import main

        engine = "native" if backend_available("native") else "heap"
        rc = main(["bench", "--rounds", "1", "--quick", "--engine", engine,
                   "--out", str(tmp_path), "--label", "b"])
        assert rc == 0
        payload = bench.load_payload(tmp_path / "BENCH_b.json")
        assert payload["engine"] == engine

    def test_unknown_engine_rejected(self):
        from repro.cli import build_parser

        for name in ("btree", "batched"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["bench", "--engine", name])
