"""Guard: the simulator reads enum members through module-level names.

On CPython 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, which
sends every attribute read on an enum class -- ``TaskState.RUNNING`` --
through a slow path, about ten times the cost of reading a module
global.  The dispatch path compares task states and wait modes several
times per simulated event, so :mod:`repro.sched.task` binds every
member of ``TaskState``, ``WaitMode`` and ``ActionType`` once
(``TASK_RUNNING``, ``WAIT_YIELD``, ``ACT_COMPUTE``, ...) and the
simulator compares against those names.

This test parses the simulator's modules and fails on a member read
inside a function body.  Reads that run once -- module-level bindings
and class-level defaults -- stay allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.sched import task as task_module
from repro.sched.task import ActionType, TaskState, WaitMode

SRC = Path(repro.__file__).resolve().parent

#: enum class name -> its member names
_MEMBERS = {cls.__name__: frozenset(cls.__members__) for cls in (TaskState, WaitMode, ActionType)}


def _modules() -> list[Path]:
    paths = [p for sub in ("sched", "apps", "balance", "core") for p in sorted((SRC / sub).glob("*.py"))]
    return paths + [SRC / "system.py"]


def member_reads_in_functions(source: str) -> list[tuple[int, str]]:
    """``(line, "Enum.MEMBER")`` for each member read inside a function
    body (decorators, defaults and annotations are evaluated once and
    are not bodies)."""
    found: set[tuple[int, int, str]] = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = fn.body
        elif isinstance(fn, ast.Lambda):
            body = [fn.body]
        else:
            continue
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.attr in _MEMBERS.get(node.value.id, ())
                ):
                    found.add((node.lineno, node.col_offset, f"{node.value.id}.{node.attr}"))
    return [(line, name) for line, _, name in sorted(found)]


def test_detector_flags_function_reads_only():
    source = (
        "from repro.sched.task import TaskState, WaitMode\n"
        "TASK_RUNNING = TaskState.RUNNING\n"  # module-level binding
        "class Policy:\n"
        "    mode: WaitMode = WaitMode.YIELD\n"  # class-level default
        "    def is_sleep(self):\n"
        "        return self.mode == WaitMode.SLEEP\n"
        "def running(task, when=TaskState.NEW):\n"  # default: evaluated once
        "    check = lambda t: t.state is TaskState.RUNNABLE\n"
        "    return task.state == TaskState.RUNNING or check(task)\n"
    )
    assert member_reads_in_functions(source) == [
        (6, "WaitMode.SLEEP"),
        (8, "TaskState.RUNNABLE"),
        (9, "TaskState.RUNNING"),
    ]


def test_every_member_has_a_module_binding():
    bound = {id(v) for v in vars(task_module).values()}
    for cls in (TaskState, WaitMode, ActionType):
        for member in cls:
            assert id(member) in bound, f"{member} has no module-level name in repro.sched.task"


@pytest.mark.parametrize("path", _modules(), ids=lambda p: str(p.relative_to(SRC)))
def test_no_enum_member_reads_inside_functions(path):
    reads = member_reads_in_functions(path.read_text())
    assert not reads, (
        f"{path.relative_to(SRC)} reads enum members inside functions; compare "
        f"against the module-level names in repro.sched.task instead: {reads}"
    )
