"""Tests for the SIM rules (:mod:`repro.analysis.lint`) and the analyzer's command.

Each rule gets a positive case (the violation fires), a suppressed case
(``# sim-lint: ignore[...]`` silences it) and, where relevant, a clean
case showing the exemptions work.  The mutation tests are the
acceptance check: injecting a real determinism bug into a copy of
``speed_balancer.py`` must be caught.  ``TestCli`` covers the one
command, ``python -m repro.analysis``, for every rule family, and
``repro check``, which runs the same analyzer.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.analysis import flow, program
from repro.analysis.lint import lint_source
from repro.analysis.rules import MARKER, RULES, suppressed_rules
from repro.analysis.static import analyze
from repro.analysis.static import main as analysis_main
from tests.test_analysis_flow import write_tree

#: a path inside a scheduling-decision directory (SIM001 applies) ...
DECISION = Path("src/repro/balance/fake.py")
#: ... and one outside (SIM001 does not)
PLAIN = Path("src/repro/harness/fake.py")


def rule_ids(source: str, path: Path = DECISION) -> list[str]:
    return [f.rule for f in lint_source(textwrap.dedent(source), path)]


class TestSim001SetIteration:
    def test_set_literal_for_loop(self):
        assert rule_ids("for x in {1, 2, 3}:\n    pass\n") == ["SIM001"]

    def test_dict_keys_view(self):
        assert rule_ids("for k in table.keys():\n    pass\n") == ["SIM001"]

    def test_set_call(self):
        assert rule_ids("for c in set(cores):\n    pass\n") == ["SIM001"]

    def test_name_inferred_from_assignment(self):
        src = "pool = set(cores)\nfor c in pool:\n    pass\n"
        assert rule_ids(src) == ["SIM001"]

    def test_name_inferred_from_annotation(self):
        src = """\
        def pick(cores: set[int]):
            for c in cores:
                pass
        """
        assert rule_ids(src) == ["SIM001"]

    def test_self_attribute_inferred(self):
        src = """\
        class B:
            def __init__(self):
                self.pool = set()

            def scan(self):
                for c in self.pool:
                    pass
        """
        assert rule_ids(src) == ["SIM001"]

    def test_comprehension_flagged(self):
        assert rule_ids("xs = [c for c in {1, 2}]\n") == ["SIM001"]

    def test_order_preserving_wrapper_still_flagged(self):
        assert rule_ids("for c in list({1, 2}):\n    pass\n") == ["SIM001"]

    def test_sorted_is_clean(self):
        assert rule_ids("for c in sorted({1, 2}):\n    pass\n") == []

    def test_non_decision_module_exempt(self):
        assert rule_ids("for x in {1, 2}:\n    pass\n", PLAIN) == []

    def test_suppression_comment(self):
        src = "for x in {1, 2}:  # sim-lint: ignore[SIM001]\n    pass\n"
        assert rule_ids(src) == []

    def test_bare_ignore_suppresses(self):
        src = "for x in {1, 2}:  # sim-lint: ignore\n    pass\n"
        assert rule_ids(src) == []


class TestSim002GlobalRandom:
    def test_import_random(self):
        assert rule_ids("import random\n", PLAIN) == ["SIM002"]

    def test_from_random_import(self):
        assert rule_ids("from random import shuffle\n", PLAIN) == ["SIM002"]

    def test_numpy_random(self):
        assert rule_ids("from numpy import random\n", PLAIN) == ["SIM002"]

    def test_call_on_alias_flagged_too(self):
        src = "import random as rnd\nx = rnd.randint(0, 3)\n"
        assert rule_ids(src, PLAIN) == ["SIM002", "SIM002"]

    def test_suppression_comment(self):
        src = "import random  # sim-lint: ignore[SIM002]\n"
        assert rule_ids(src, PLAIN) == []


class TestSim003WallClock:
    def test_time_time_call(self):
        src = "import time\nt = time.time()\n"
        assert rule_ids(src, PLAIN) == ["SIM003"]

    def test_from_time_import_monotonic(self):
        assert rule_ids("from time import monotonic\n", PLAIN) == ["SIM003"]

    def test_datetime_now(self):
        src = "from datetime import datetime\nts = datetime.now()\n"
        assert rule_ids(src, PLAIN) == ["SIM003"]

    def test_plain_import_time_is_clean(self):
        # importing the module is fine (time.sleep etc. in harness code);
        # only wall-clock reads are flagged
        assert rule_ids("import time\n", PLAIN) == []

    def test_suppression_comment(self):
        src = "import time\nt = time.time()  # sim-lint: ignore[SIM003]\n"
        assert rule_ids(src, PLAIN) == []


class TestSim004FloatTimestamps:
    def test_true_division_on_now(self):
        assert rule_ids("x = engine.now / 2\n", PLAIN) == ["SIM004"]

    def test_float_of_timestamp(self):
        assert rule_ids("x = float(self.engine.now)\n", PLAIN) == ["SIM004"]

    def test_float_delay_to_schedule(self):
        assert rule_ids("eng.schedule(1.5, cb)\n", PLAIN) == ["SIM004"]

    def test_division_inside_schedule_delay(self):
        assert rule_ids("eng.schedule(iv / 2, cb)\n", PLAIN) == ["SIM004"]

    def test_int_coercion_is_clean(self):
        assert rule_ids("eng.schedule(int(iv / 2), cb)\n", PLAIN) == []

    def test_floor_division_is_clean(self):
        assert rule_ids("x = engine.now // 2\n", PLAIN) == []

    def test_suppression_comment(self):
        src = "x = engine.now / 2  # sim-lint: ignore[SIM004]\n"
        assert rule_ids(src, PLAIN) == []


class TestSim005MutableDefaults:
    def test_list_default(self):
        assert rule_ids("def f(x=[]):\n    pass\n", PLAIN) == ["SIM005"]

    def test_dict_and_set_call_defaults(self):
        src = "def f(x={}, *, y=set()):\n    pass\n"
        assert rule_ids(src, PLAIN) == ["SIM005", "SIM005"]

    def test_lambda_default(self):
        assert rule_ids("f = lambda x=[]: x\n", PLAIN) == ["SIM005"]

    def test_none_default_is_clean(self):
        assert rule_ids("def f(x=None, y=0, z=()):\n    pass\n", PLAIN) == []

    def test_suppression_comment(self):
        src = "def f(x=[]):  # sim-lint: ignore[SIM005]\n    pass\n"
        assert rule_ids(src, PLAIN) == []


class TestSuppression:
    def test_skip_file_marker(self):
        src = "# sim-lint: skip-file\nimport random\nfor x in {1}:\n    pass\n"
        assert rule_ids(src) == []

    def test_ignore_wrong_rule_does_not_suppress(self):
        src = "import random  # sim-lint: ignore[SIM001]\n"
        assert rule_ids(src, PLAIN) == ["SIM002"]

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", PLAIN)
        assert [f.rule for f in findings] == ["SIM000"]


class TestRepoIsClean:
    def test_installed_package_lints_clean(self, capsys):
        """The default run -- every rule over the installed package."""
        assert analysis_main([]) == 0, capsys.readouterr().out

    def test_rule_catalogue_complete(self):
        assert sorted(RULES) == [
            "FLOW001", "FLOW002", "FLOW003", "FLOW004", "FLOW005",
            "KERN002", "KERN005", "KERN006",
            "SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006",
            "SIM007",
        ]

    def test_inline_suppressions_follow_policy(self):
        """The one escape hatch stays narrow: no suppression in the
        decision modules, no blanket form, no id outside the registry."""
        pkg = Path(repro.__file__).resolve().parent
        seen = 0
        for path in sorted(pkg.rglob("*.py")):
            with path.open("rb") as fh:
                comments = [
                    tok for tok in tokenize.tokenize(fh.readline)
                    if tok.type == tokenize.COMMENT and MARKER in tok.string
                ]
            for tok in comments:
                rel = path.relative_to(pkg)
                where = f"{rel}:{tok.start[0]}: {tok.string}"
                assert rel.parts[0] not in ("core", "balance"), where
                assert "skip-file" not in tok.string, where
                rules = suppressed_rules(tok.string)
                assert rules, where  # a bare ignore names no rule
                assert rules <= set(RULES), where
                seen += 1
        assert seen  # the shipped suppressions were found

    def test_sanitizer_import_loads_no_static_analyzer(self):
        """The store, serve workers and benchmark import the sanitizer;
        they must not pay for the AST tooling."""
        code = (
            "import sys, repro.analysis.sanitizer; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        loaded = set(ast.literal_eval(out))
        assert "repro.analysis.sanitizer" in loaded
        static = {
            "repro.analysis.static", "repro.analysis.rules", "repro.analysis.program",
            "repro.analysis.lint", "repro.analysis.flow", "repro.analysis.kernel",
        }
        assert not loaded & static


class TestCli:
    TREE = {
        "repro/sched/cache.py": """\
        import random

        _CACHE = {}


        def remember(key, value=[]):
            _CACHE[key] = value
        """,
    }

    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        f = tmp_path / "ok.py"
        f.write_text("x = 1\n")
        assert analysis_main([str(f)]) == 0

    def test_exit_one_and_report_on_findings(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text("import random\n")
        assert analysis_main([str(f)]) == 1
        out = capsys.readouterr().out
        assert "SIM002" in out and "bad.py:1:" in out

    def test_select_filters_rules(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text("import random\ndef f(x=[]):\n    pass\n")
        assert analysis_main([str(f), "--select", "SIM005"]) == 1
        out = capsys.readouterr().out
        assert "SIM005" in out and "SIM002" not in out

    def test_select_mixes_families(self, tmp_path, capsys):
        write_tree(tmp_path, self.TREE)
        assert analysis_main([str(tmp_path), "--select", "SIM002,FLOW004"]) == 1
        out = capsys.readouterr().out
        assert "SIM002" in out and "FLOW004" in out and "SIM005" not in out

    def test_unknown_select_rejected(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text("import random\n")
        assert analysis_main([str(f), "--select", "SIM999"]) == 2
        assert "SIM999" in capsys.readouterr().err

    def test_format_json(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text("import random\ndef g(x=[]):\n    pass\n")
        assert analysis_main([str(f), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert sorted(d["rule"] for d in data) == ["SIM002", "SIM005"]
        assert all(d["path"] == str(f) for d in data)
        assert all("function" in d for d in data)

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert analysis_main([str(tmp_path / "nope_dir")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_parse_error_reported_once(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        assert analysis_main([str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out.count("broken.py") == 1 and "SIM000" in out
        assert err == ""

    def test_removed_subcommands_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.py").write_text("x = 1\n")
        for command in ("lint", "flow", "kernel"):
            assert analysis_main([command, "ok.py"]) == 2

    def test_one_parse_per_file_one_index_one_solve(self, tmp_path, monkeypatch):
        calls: Counter = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(program, "parse_module", counting("parse", program.parse_module))
        monkeypatch.setattr(
            program.ProgramIndex, "__init__", counting("index", program.ProgramIndex.__init__)
        )
        monkeypatch.setattr(
            flow.FlowAnalysis, "solve", counting("solve", flow.FlowAnalysis.solve)
        )
        write_tree(tmp_path, self.TREE)
        files = sorted(tmp_path.rglob("*.py"))
        assert [f.rule for f in analyze([tmp_path])] == ["SIM002", "SIM005", "FLOW004"]
        assert calls == {"parse": len(files), "index": 1, "solve": 1}

    def test_check_runs_every_rule(self, tmp_path, capsys):
        """``repro check`` runs the KERN rules CI runs, not just SIM/FLOW."""
        from repro.cli import main as cli_main

        write_tree(tmp_path, {"repro/sim/loop.py": "def run() -> None: f = lambda: 1\n"})
        rc = cli_main([
            "check", "--paths", str(tmp_path), "--seconds", "0.02", "--repeats", "1",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "KERN005" in out and "invariants: ok" in out


class TestMutationCatches:
    """Acceptance check: seeded determinism bugs in the real balancer."""

    @pytest.fixture
    def balancer_source(self) -> str:
        path = Path(repro.__file__).resolve().parent / "core" / "speed_balancer.py"
        return path.read_text()

    def test_injected_set_iteration_is_caught(self, balancer_source):
        target = "for k in self.requested_cores or []:"
        assert target in balancer_source
        mutated = balancer_source.replace(
            target, "for k in set(self.requested_cores or []):"
        )
        findings = lint_source(mutated, Path("src/repro/core/speed_balancer.py"))
        assert any(f.rule == "SIM001" for f in findings)
        # the pristine source is clean, so the finding is the mutation
        assert lint_source(balancer_source, Path("src/repro/core/speed_balancer.py")) == []

    def test_injected_float_timestamp_is_caught(self, balancer_source):
        target = "now - self.last_migration_at.get(dst,"
        assert target in balancer_source
        mutated = balancer_source.replace(
            target, "now / 1 - self.last_migration_at.get(dst,"
        )
        findings = lint_source(mutated, Path("src/repro/core/speed_balancer.py"))
        assert any(f.rule == "SIM004" for f in findings)


class TestSim006FsIteration:
    """Unordered filesystem enumeration in harness/analysis modules."""

    HARNESS = Path("src/repro/harness/fake.py")

    def test_os_listdir(self):
        src = "import os\nnames = os.listdir('runs')\n"
        assert rule_ids(src, self.HARNESS) == ["SIM006"]

    def test_glob_module(self):
        src = "import glob\nhits = glob.glob('*.json')\n"
        assert rule_ids(src, self.HARNESS) == ["SIM006"]

    def test_path_iterdir_and_rglob(self):
        src = """\
        from pathlib import Path
        for p in Path('.').iterdir():
            pass
        files = list(Path('.').rglob('*.py'))
        """
        assert rule_ids(src, self.HARNESS) == ["SIM006", "SIM006"]

    def test_from_import_alias(self):
        src = "from os import listdir as ls\nnames = ls('runs')\n"
        assert rule_ids(src, self.HARNESS) == ["SIM006"]

    def test_sorted_wrapper_is_exempt(self):
        src = """\
        import os, glob
        from pathlib import Path
        a = sorted(os.listdir('runs'))
        b = sorted(glob.glob('*.json'))
        c = sorted(Path('.').rglob('*.py'))
        """
        assert rule_ids(src, self.HARNESS) == []

    def test_out_of_scope_module_is_exempt(self):
        src = "import os\nnames = os.listdir('runs')\n"
        assert rule_ids(src, Path("src/repro/sim/fake.py")) == []

    def test_analysis_dir_in_scope(self):
        src = "import os\nnames = os.listdir('runs')\n"
        assert rule_ids(src, Path("src/repro/analysis/fake.py")) == ["SIM006"]

    def test_suppression_comment(self):
        src = (
            "import os\n"
            "names = os.listdir('runs')  # sim-lint: ignore[SIM006]\n"
        )
        assert rule_ids(src, self.HARNESS) == []

    def test_unrelated_name_not_flagged(self):
        src = "names = listdir('runs')\n"  # not imported from os
        assert rule_ids(src, self.HARNESS) == []


class TestSim007AggregateSweeps:
    """O(n) aggregate recomputation in sched/ and core/ hot modules."""

    HOT = Path("src/repro/sched/fake.py")
    CORE = Path("src/repro/core/fake.py")

    def test_sum_over_rq_tasks(self):
        src = "w = sum(t.weight for t in self.rq.tasks())\n"
        assert rule_ids(src, self.HOT) == ["SIM007"]

    def test_max_over_rq_tasks(self):
        src = "v = max(t.vruntime for t in rq.tasks())\n"
        assert rule_ids(src, self.HOT) == ["SIM007"]

    def test_full_core_sweep_direct_arg(self):
        src = "busiest = max(self.system.cores, key=lambda c: c.nr_running)\n"
        assert rule_ids(src, self.CORE) == ["SIM007"]

    def test_listcomp_over_runnable_tasks(self):
        src = "n = sum([1 for t in core.runnable_tasks()])\n"
        assert rule_ids(src, self.CORE) == ["SIM007"]

    def test_any_over_cores(self):
        src = "busy = any(c.current is not None for c in cores)\n"
        assert rule_ids(src, self.HOT) == ["SIM007"]

    def test_scalar_min_max_exempt(self):
        src = (
            "a = min(slice_us, yield_check_us)\n"
            "b = max(1, run_for)\n"
            "c = max(task.vruntime, self.rq.max_vruntime())\n"
        )
        assert rule_ids(src, self.HOT) == []

    def test_local_collections_exempt(self):
        src = "avg = sum(speeds) / len(speeds)\n"
        assert rule_ids(src, self.CORE) == []

    def test_out_of_scope_dirs_exempt(self):
        src = "w = sum(t.weight for t in self.rq.tasks())\n"
        assert rule_ids(src, Path("src/repro/balance/fake.py")) == []
        assert rule_ids(src, Path("src/repro/harness/fake.py")) == []

    def test_suppression_comment(self):
        src = (
            "w = sum(t.weight for t in self.rq.tasks())"
            "  # sim-lint: ignore[SIM007]\n"
        )
        assert rule_ids(src, self.HOT) == []
