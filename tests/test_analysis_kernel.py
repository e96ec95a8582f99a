"""The analyzer on a synthetic kernel zone: command line, suppressions, catalogue.

The whole-program KERN rules are deleted (``docs/analysis.md`` scores
them against planted defects); their per-file case, dynamic code and
attribute hooks in ``repro.sim``/``repro.sched``/``repro.balance``/
``repro.mem``, is SIM009.  ``TestCli`` drives ``python -m
repro.analysis`` on a kernel tree with SIM009 and SIM003 findings; the
repo-is-clean tests at the bottom are the acceptance check: the shipped
tree has zero SIM009 findings, with no baseline kept.
"""

import json
from pathlib import Path

from repro.analysis.rules import RULES
from repro.analysis.static import analyze
from repro.analysis.static import main as analysis_main
from tests.test_analysis_lint import write_tree

REPO = Path(__file__).resolve().parents[1]


def kernel_rules(root: Path, files: dict) -> list:
    write_tree(root, files)
    return [f.rule for f in analyze([root])]


class TestSuppression:
    FIXTURE_LINE = """\
    def parse(s: str) -> int:
        return eval(s)  # sim-lint: ignore[{ids}]
    """

    def test_mixed_catalogue_ids_suppress(self, tmp_path):
        src = self.FIXTURE_LINE.format(ids="SIM004, SIM009")
        assert kernel_rules(tmp_path, {"repro/sim/dyn.py": src}) == []

    def test_unrelated_id_does_not_suppress(self, tmp_path):
        src = self.FIXTURE_LINE.format(ids="SIM004")
        assert kernel_rules(tmp_path, {"repro/sim/dyn.py": src}) == ["SIM009"]

    def test_skip_file(self, tmp_path):
        assert (
            kernel_rules(
                tmp_path,
                {
                    "repro/sim/dyn.py": """\
                    # sim-lint: skip-file
                    def parse(s: str) -> int:
                        return eval(s)
                    """
                },
            )
            == []
        )


class TestCli:
    """``python -m repro.analysis`` on a tree of kernel modules."""

    FIXTURE = {
        "repro/sim/clock.py": """\
        import time


        def stamp() -> float:
            return time.time()
        """,
        "repro/sim/dyn.py": """\
        def parse(s: str) -> int:
            return eval(s)
        """,
    }

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write_tree(
            tmp_path, {"repro/sim/ok.py": "def run(x: int) -> int:\n    return x + 1\n"}
        )
        assert analysis_main([str(tmp_path)]) == 0

    def test_exit_one_and_report_on_findings(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        assert analysis_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SIM003" in out and "SIM009" in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert analysis_main([str(tmp_path / "nope")]) == 2

    def test_format_json(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        rc = analysis_main([str(tmp_path), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert sorted(d["rule"] for d in data) == ["SIM003", "SIM009"]
        assert all("function" in d for d in data)

    def test_select_filters_rules(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        assert analysis_main([str(tmp_path), "--select", "SIM009"]) == 1
        out = capsys.readouterr().out
        assert "SIM009" in out and "SIM003" not in out

    def test_unknown_select_rejected(self, tmp_path, capsys):
        """A deleted KERN id is an unknown id, not a silent no-op."""
        assert analysis_main([str(tmp_path), "--select", "KERN006"]) == 2
        assert "KERN006" in capsys.readouterr().err


class TestCatalogue:
    def test_rule_ids_complete(self):
        assert sorted(r for r in RULES if r.startswith("KERN")) == []
        assert "kernel module" in RULES["SIM009"]

    def test_rules_command_prints_kern_catalogue(self, capsys):
        assert analysis_main(["rules"]) == 0
        out = capsys.readouterr().out
        assert f"SIM009   {RULES['SIM009']}" in out
        assert "SIM001" in out and "KERN" not in out


class TestRepoIsClean:
    def test_whole_tree_ratchets_to_zero(self):
        """No baseline is kept: the shipped tree has zero SIM009 findings."""
        findings = [f for f in analyze([REPO / "src" / "repro"]) if f.rule == "SIM009"]
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_cli_default_run_is_green(self, capsys):
        rc = analysis_main([str(REPO / "src" / "repro"), "--select", "SIM009"])
        assert rc == 0, capsys.readouterr().out
