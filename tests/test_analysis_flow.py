"""The analyzer over whole trees: command line, suppressions, catalogue.

The cross-module FLOW rules are deleted (``docs/analysis.md`` scores
them against planted defects); their per-file case, module-level state
written by a function of the module, is SIM008.  The fixtures here are
multi-file packages with SIM008 and SIM004 findings, run through the
whole analyzer.  The repo-is-clean test at the bottom is the acceptance
check: the shipped tree analyzes to zero findings.
"""

import json
from pathlib import Path

from repro.analysis.invariants import INVARIANTS
from repro.analysis.lint import lint_source
from repro.analysis.rules import RULES
from repro.analysis.sanitizer import SAN_RULES
from repro.analysis.static import analyze
from repro.analysis.static import main as analysis_main
from tests.test_analysis_lint import write_tree

REPO = Path(__file__).resolve().parents[1]


def tree_rules(root: Path, files: dict) -> list:
    write_tree(root, files)
    return [f.rule for f in analyze([root])]


class TestSuppression:
    def test_lint_honours_mixed_comment(self):
        src = "for x in {1, 2, 3}:  # sim-lint: ignore[SIM004, SIM001]\n    pass\n"
        assert [f.rule for f in lint_source(src, Path("src/repro/balance/fake.py"))] == []

    def test_unrelated_id_does_not_suppress(self, tmp_path):
        assert tree_rules(
            tmp_path,
            {
                "repro/sched/cache.py": """\
                _CACHE = {}


                def remember(key, value):
                    _CACHE[key] = value  # sim-lint: ignore[SIM004]
                """
            },
        ) == ["SIM008"]

    def test_skip_file(self, tmp_path):
        assert tree_rules(
            tmp_path,
            {
                "repro/sched/cache.py": """\
                # sim-lint: skip-file
                _CACHE = {}


                def remember(key, value):
                    _CACHE[key] = value
                """
            },
        ) == []


class TestCli:
    """``python -m repro.analysis`` on a two-module tree."""

    FIXTURE = {
        "repro/sched/cache.py": """\
        _CACHE = {}


        def remember(key, value):
            _CACHE[key] = value
        """,
        "repro/sched/timer.py": """\
        def arm(engine, interval):
            engine.schedule(interval / 2, "tick")
        """,
    }

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write_tree(tmp_path, {"repro/sched/ok.py": "def f(x):\n    return x + 1\n"})
        assert analysis_main([str(tmp_path)]) == 0

    def test_exit_one_and_report_on_findings(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        assert analysis_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SIM008" in out and "SIM004" in out

    def test_format_json(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        rc = analysis_main([str(tmp_path), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert sorted(d["rule"] for d in data) == ["SIM004", "SIM008"]
        assert all("function" in d for d in data)

    def test_select_filters_rules(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        assert analysis_main([str(tmp_path), "--select", "SIM008"]) == 1
        out = capsys.readouterr().out
        assert "SIM008" in out and "SIM004" not in out

    def test_unknown_select_rejected(self, tmp_path, capsys):
        """A deleted FLOW id is an unknown id, not a silent no-op."""
        assert analysis_main([str(tmp_path), "--select", "FLOW001"]) == 2
        assert "FLOW001" in capsys.readouterr().err


class TestCatalogue:
    def test_rule_ids_complete(self):
        assert sorted(r for r in RULES if r.startswith("FLOW")) == []
        assert "module-level" in RULES["SIM008"]

    def test_rules_command_prints_flow_catalogue(self, capsys):
        assert analysis_main(["rules"]) == 0
        out = capsys.readouterr().out
        for rid in [*RULES, *INVARIANTS, *SAN_RULES]:
            assert rid in out
        assert "FLOW" not in out


class TestRepoIsClean:
    def test_whole_tree_zero_findings(self):
        findings = analyze([REPO / "src" / "repro"])
        assert findings == [], "\n".join(f.format() for f in findings)
