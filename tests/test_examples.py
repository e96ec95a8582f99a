"""The examples must run end-to-end and print their tables.

Each example is executed in-process (same interpreter, captured
stdout); a smoke-level content check verifies the table headers and the
narrative landed.
"""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return buf.getvalue()


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "SPEED" in out and "LOAD" in out and "PINNED" in out
        assert "ideal speedup: 12" in out

    def test_barrier_waiting(self):
        out = run_example("barrier_waiting.py")
        assert "yield (UPC/MPI default)" in out
        assert "KMP_BLOCKTIME" in out

    def test_shared_machine(self):
        out = run_example("shared_machine.py")
        assert "cpu-hog" in out
        assert "make -j 16" in out

    def test_numa_barcelona(self):
        out = run_example("numa_barcelona.py")
        assert "NUMA blocked" in out
        assert "off-node" in out

    def test_asymmetric_turbo(self):
        out = run_example("asymmetric_turbo.py")
        assert "clocks" in out
        assert "SPEED" in out

    def test_analytical_model(self):
        out = run_example("analytical_model.py")
        assert "Lemma 1 bound" in out
        assert "profitability threshold" in out

    def test_trace_gantt(self):
        out = run_example("trace_gantt.py")
        assert "core  0" in out and "core  1" in out
        assert "Jain" in out

    def test_load_test(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", [
            "load_test.py", "--duration", "1", "--workers", "1",
            "--store", str(tmp_path / "store"),
        ])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(EXAMPLES / "load_test.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert exc.value.code == 0, out
        table = out.split("closed-loop load test\n", 1)[1].split("daemon:", 1)[0]
        header, _rule, *rows = table.splitlines()
        col = header.split().index("completed")
        completed = {row.split()[0]: int(row.split()[col]) for row in rows}
        assert set(completed) == {"large", "medium", "small"}
        assert min(completed.values()) >= 1
