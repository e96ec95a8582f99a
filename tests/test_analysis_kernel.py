"""Tests for the KERN rules (:mod:`repro.analysis.kernel`).

Each KERN rule gets a planted fixture inside a synthetic kernel zone
(``repro.sim``/``repro.sched``/``repro.balance``), including the
cross-function cases only the whole-program view catches: attribute
types fed through typed references, and dispatch reachability through
escaped callbacks and typed-attribute call edges.  Fixtures run through
the whole analyzer and keep only the KERN findings.  ``TestCli`` drives
``python -m repro.analysis`` on a KERN-only tree; the repo-is-clean
tests at the bottom are the acceptance check: the shipped tree has zero
KERN findings.
"""

import json
from pathlib import Path

from repro.analysis.rules import RULES
from repro.analysis.static import analyze
from repro.analysis.static import main as analysis_main
from tests.test_analysis_flow import write_tree

REPO = Path(__file__).resolve().parents[1]
KERN_RULES = sorted(r for r in RULES if r.startswith("KERN"))


def kernel_paths(paths: list) -> list:
    """The KERN findings of a whole-analyzer run."""
    return [f for f in analyze(paths) if f.rule.startswith("KERN")]


def kern_rules(root: Path, files: dict) -> list:
    write_tree(root, files)
    return [f.rule for f in kernel_paths([root])]


class TestKern002TypeStability:
    def test_conflicting_types_across_methods(self, tmp_path):
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/cell.py": """\
                    class Cell:
                        def __init__(self) -> None:
                            self.v = 0

                        def flip(self) -> None:
                            self.v = "oops"
                    """
                },
            )
            == ["KERN002"]
        )

    def test_optional_pattern_is_clean(self, tmp_path):
        """None plus exactly one other type is an Optional field."""
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/cell.py": """\
                    class Cell:
                        def __init__(self) -> None:
                            self.v = None

                        def arm(self) -> None:
                            self.v = 3
                    """
                },
            )
            == []
        )

    def test_cross_module_conflict_through_typed_reference(self, tmp_path):
        """The cross-function case a per-class scan misses: another
        module's function, holding an annotated reference resolved
        through the import graph, re-types the attribute."""
        write_tree(
            tmp_path,
            {
                "repro/sched/cell.py": """\
                class Cell:
                    def __init__(self) -> None:
                        self.v = 0
                """,
                "repro/balance/mut.py": """\
                from repro.sched.cell import Cell


                def clobber(c: Cell) -> None:
                    c.v = 1.5
                """,
            },
        )
        findings = kernel_paths([tmp_path])
        assert [f.rule for f in findings] == ["KERN002"]
        assert "int" in findings[0].message and "float" in findings[0].message

    def test_subclass_retyping_base_attr(self, tmp_path):
        """Type sites merge across the class family."""
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/cell.py": """\
                    class Base:
                        def __init__(self) -> None:
                            self.v = 0


                    class Sub(Base):
                        def flip(self) -> None:
                            self.v = "oops"
                    """
                },
            )
            == ["KERN002"]
        )


class TestKern005Closures:
    def test_lambda_in_entry_point(self, tmp_path):
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sim/loop.py": """\
                    def run() -> None:
                        cb = lambda: 1
                    """
                },
            )
            == ["KERN005"]
        )

    def test_nested_def_in_entry_point(self, tmp_path):
        findings = []
        write_tree(
            tmp_path,
            {
                "repro/sim/loop.py": """\
                def run() -> None:
                    def inner() -> None:
                        pass
                """
            },
        )
        findings = kernel_paths([tmp_path])
        assert [f.rule for f in findings] == ["KERN005"]
        assert "inner" in findings[0].message

    def test_lambda_in_cold_function_is_clean(self, tmp_path):
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/setup.py": """\
                    def configure() -> None:
                        cb = lambda: 1
                    """
                },
            )
            == []
        )

    def test_reachability_through_escaped_callback(self, tmp_path):
        """Storing a bound method in __init__ makes it a dispatch root:
        the event system can invoke it per event."""
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/pump.py": """\
                    class Pump:
                        def __init__(self) -> None:
                            self._cb = self._tick

                        def _tick(self) -> None:
                            x = lambda: 1
                    """
                },
            )
            == ["KERN005"]
        )

    def test_reachability_through_escaping_lambda_body(self, tmp_path):
        """A method only called from inside an escaping lambda still
        runs at dispatch time, so its own closures are hot."""
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sched/pump.py": """\
                    class Pump:
                        def go(self, cb: object) -> None:
                            pass

                        def fire(self) -> None:
                            y = lambda: 2


                    def arm(p: Pump) -> None:
                        p.go(lambda: p.fire())
                    """
                },
            )
            == ["KERN005"]
        )


    def test_reachable_helper_flagged_cold_helper_not(self, tmp_path):
        """Only the dispatch-reachable half of the module is held to
        the closure bar."""
        write_tree(
            tmp_path,
            {
                "repro/sim/loop.py": """\
                def helper(a: int) -> int:
                    f = lambda: a
                    return f()


                def cold(a: int) -> int:
                    f = lambda: a
                    return f()


                def run(x: int) -> None:
                    helper(x)
                """
            },
        )
        findings = kernel_paths([tmp_path])
        assert [f.rule for f in findings] == ["KERN005"]
        assert findings[0].function.endswith("helper")

    def test_reachability_through_typed_attribute_call(self, tmp_path):
        """``self.q.push(...)`` resolves through the __init__ assignment
        ``self.q = Q()`` -- the typed-attribute call edge."""
        write_tree(
            tmp_path,
            {
                "repro/sim/engx.py": """\
                class Q:
                    def __init__(self) -> None:
                        self.items: list = []

                    def push(self, v: int) -> None:
                        self.items.append(lambda: v)


                class Eng:
                    def __init__(self) -> None:
                        self.q = Q()

                    def run(self) -> None:
                        self.q.push(1)
                """
            },
        )
        findings = kernel_paths([tmp_path])
        assert [f.rule for f in findings] == ["KERN005"]
        assert findings[0].function.endswith("Q.push")


class TestKern006ModuleHygiene:
    def test_eval_flagged_regardless_of_reachability(self, tmp_path):
        findings = []
        write_tree(
            tmp_path,
            {
                "repro/sim/dyn.py": """\
                def parse(s: str) -> int:
                    return eval(s)
                """
            },
        )
        findings = kernel_paths([tmp_path])
        assert [f.rule for f in findings] == ["KERN006"]
        assert "eval" in findings[0].message

    def test_metaclass_and_dynamic_hook(self, tmp_path):
        rules = kern_rules(
            tmp_path,
            {
                "repro/sim/dyn.py": """\
                class Meta(type):
                    pass


                class Reg(metaclass=Meta):
                    pass


                class Lazy:
                    def __getattr__(self, name: str) -> int:
                        return 0
                """
            },
        )
        assert rules == ["KERN006", "KERN006"]


class TestSuppression:
    FIXTURE_LINE = """\
    def run() -> None:
        cb = lambda: 1  # sim-lint: ignore[{ids}]
    """

    def test_kern_id_suppresses(self, tmp_path):
        src = self.FIXTURE_LINE.format(ids="KERN005")
        assert kern_rules(tmp_path, {"repro/sim/loop.py": src}) == []

    def test_mixed_catalogue_ids_suppress(self, tmp_path):
        src = self.FIXTURE_LINE.format(ids="SIM004, KERN005")
        assert kern_rules(tmp_path, {"repro/sim/loop.py": src}) == []

    def test_unrelated_id_does_not_suppress(self, tmp_path):
        src = self.FIXTURE_LINE.format(ids="KERN002")
        assert kern_rules(tmp_path, {"repro/sim/loop.py": src}) == ["KERN005"]

    def test_skip_file(self, tmp_path):
        assert (
            kern_rules(
                tmp_path,
                {
                    "repro/sim/loop.py": """\
                    # sim-lint: skip-file
                    def run() -> None:
                        cb = lambda: 1
                    """
                },
            )
            == []
        )


class TestCli:
    """``python -m repro.analysis`` on a tree with only KERN findings."""

    FIXTURE = {
        "repro/sim/loop.py": """\
        def run() -> None:
            cb = lambda: 1
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
        assert "KERN005" in out and "KERN006" in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert analysis_main([str(tmp_path / "nope")]) == 2

    def test_format_json(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        rc = analysis_main([str(tmp_path), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert sorted(d["rule"] for d in data) == ["KERN005", "KERN006"]
        assert all("function" in d for d in data)

    def test_select_filters_rules(self, tmp_path, capsys):
        write_tree(tmp_path, self.FIXTURE)
        assert analysis_main([str(tmp_path), "--select", "KERN006"]) == 1
        out = capsys.readouterr().out
        assert "KERN006" in out and "KERN005" not in out

    def test_unknown_select_rejected(self, tmp_path, capsys):
        assert analysis_main([str(tmp_path), "--select", "KERN999"]) == 2
        assert "KERN999" in capsys.readouterr().err


class TestCatalogue:
    def test_rule_ids_complete(self):
        assert sorted(r for r in RULES if r.startswith("KERN")) == [
            "KERN002", "KERN005", "KERN006",
        ]

    def test_rules_command_prints_kern_catalogue(self, capsys):
        assert analysis_main(["rules"]) == 0
        out = capsys.readouterr().out
        for rid in ("KERN002", "KERN005", "KERN006"):
            assert rid in out
        assert "SIM001" in out and "FLOW001" in out


class TestRepoIsClean:
    def test_whole_tree_ratchets_to_zero(self):
        """No baseline is kept: the shipped tree has zero KERN findings."""
        findings = kernel_paths([REPO / "src" / "repro"])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_cli_default_run_is_green(self, capsys):
        rc = analysis_main([str(REPO / "src" / "repro"), "--select", ",".join(KERN_RULES)])
        assert rc == 0, capsys.readouterr().out
