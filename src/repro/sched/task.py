"""Task model: states, wait modes, programs and accounting.

A :class:`Task` is the unit the schedulers manage -- the paper's
footnote 2 applies here too: "Linux does not differentiate between
threads and processes: these are all tasks."

Behaviour is supplied by a :class:`Program`, a small iterator-style
object that yields :class:`Action` records (compute for W microseconds,
wait at a barrier, sleep, exit).  Workload models in
:mod:`repro.apps` are just programs; the scheduler layer never knows
whether a task is an EP thread, a cpu-hog or a make job.

Accounting
----------
``exec_us`` accumulates wall-clock microseconds during which the task
occupied a core -- exactly what Linux's taskstats interface reports and
what the paper's ``speedbalancer`` samples to compute

    speed = t_exec / t_real.

Spinning and yielding in a synchronization operation *does* count as
execution time (the thread occupies the core), while sleeping does not;
this asymmetry is what makes queue-length balancing behave so
differently under ``sched_yield`` vs ``sleep`` barriers (Sections 3 and
6.2), and the simulator preserves it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.barriers import Barrier
    from repro.sched.core import CoreSim

__all__ = [
    "TaskState", "WaitMode", "ActionType", "Action", "Program", "Task",
    "TASK_NEW", "TASK_RUNNABLE", "TASK_RUNNING", "TASK_SLEEPING", "TASK_FINISHED",
    "WAIT_SPIN", "WAIT_YIELD", "WAIT_SLEEP",
    "ACT_COMPUTE", "ACT_WAIT_BARRIER", "ACT_SLEEP", "ACT_EXIT",
]

_task_ids = itertools.count()

#: CFS nice-to-weight uses a ~1.25x ratio per nice level; NICE_0_WEIGHT
#: is the weight of a default-priority task (Linux uses 1024).
NICE_0_WEIGHT = 1024


def nice_to_weight(nice: int) -> int:
    """Linux-style geometric nice weights (10% CPU per nice level)."""
    w = NICE_0_WEIGHT / (1.25 ** nice)
    return max(1, int(round(w)))


class TaskState(enum.Enum):
    """Lifecycle of a task."""

    NEW = "new"  # created, not yet placed on a core
    RUNNABLE = "runnable"  # on a run queue, not executing
    RUNNING = "running"  # currently occupying a core
    SLEEPING = "sleeping"  # blocked; off every run queue
    FINISHED = "finished"  # exited


# Every member of the three enums is bound once as a module constant,
# and code that runs per event compares against these names.  On
# CPython 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, so a read
# such as ``TaskState.RUNNING`` takes a slow attribute path: about four
# times a member read on 3.12 and ten times a module global read, several
# times per dispatched event.  The names are the members themselves, so
# identity, hashing and pickling are unchanged
# (tests/test_enum_bindings.py keeps member reads out of functions).
TASK_NEW = TaskState.NEW
TASK_RUNNABLE = TaskState.RUNNABLE
TASK_RUNNING = TaskState.RUNNING
TASK_SLEEPING = TaskState.SLEEPING
TASK_FINISHED = TaskState.FINISHED


class WaitMode(enum.Enum):
    """How a task behaves while waiting at a synchronization point.

    Mirrors the implementations the paper evaluates:

    * ``SPIN`` -- poll continuously; stays on the run queue and burns
      CPU (OpenMP ``KMP_BLOCKTIME=infinite``, UPC polling mode).
    * ``YIELD`` -- loop on ``sched_yield``; stays on the run queue (so
      queue-length balancers count it as load) but cedes the core to
      co-runners (default UPC/MPI behaviour).
    * ``SLEEP`` -- block (``usleep``); leaves the run queue, letting the
      OS balancer pull work onto the idling core (Intel OpenMP after
      ``KMP_BLOCKTIME`` expires; the paper's modified UPC runtime).
    """

    SPIN = "spin"
    YIELD = "yield"
    SLEEP = "sleep"


WAIT_SPIN = WaitMode.SPIN
WAIT_YIELD = WaitMode.YIELD
WAIT_SLEEP = WaitMode.SLEEP


class ActionType(enum.Enum):
    """What a program asks the scheduler to do next."""

    COMPUTE = "compute"
    WAIT_BARRIER = "wait_barrier"
    SLEEP = "sleep"
    EXIT = "exit"


ACT_COMPUTE = ActionType.COMPUTE
ACT_WAIT_BARRIER = ActionType.WAIT_BARRIER
ACT_SLEEP = ActionType.SLEEP
ACT_EXIT = ActionType.EXIT


@dataclass
class Action:
    """One step of a program.

    ``work_us`` is compute demand in microseconds *at clock factor
    1.0*; a core with ``clock_factor`` f retires it in ``work_us / f``
    wall microseconds (modulo NUMA and SMT derating -- see
    :mod:`repro.mem.cache_model`).
    """

    type: ActionType
    work_us: int = 0
    barrier: Optional["Barrier"] = None
    sleep_us: int = 0

    @staticmethod
    def compute(work_us: int) -> "Action":
        return Action(ACT_COMPUTE, work_us=int(work_us))

    @staticmethod
    def wait(barrier: "Barrier") -> "Action":
        return Action(ACT_WAIT_BARRIER, barrier=barrier)

    @staticmethod
    def sleep(sleep_us: int) -> "Action":
        return Action(ACT_SLEEP, sleep_us=int(sleep_us))

    @staticmethod
    def exit() -> "Action":
        return Action(ACT_EXIT)


class Program:
    """Behavioural script of a task.

    Subclasses override :meth:`next_action`; it is called whenever the
    task finishes its previous action and must return the next one.
    Programs must be deterministic given their constructor arguments
    and any rng streams they hold.
    """

    def next_action(self, task: "Task", now: int) -> Action:
        raise NotImplementedError

    def on_start(self, task: "Task", now: int) -> None:
        """Hook invoked when the task first becomes runnable."""

    def on_exit(self, task: "Task", now: int) -> None:
        """Hook invoked when the task exits."""


class _ExitProgram(Program):
    def next_action(self, task: "Task", now: int) -> Action:
        return Action.exit()


class Task:
    """A schedulable entity.

    Parameters
    ----------
    program:
        Behaviour script; defaults to immediate exit.
    name:
        Debugging label, e.g. ``"ep.t3"`` or ``"cpu-hog"``.
    nice:
        Unix nice value; converted to a CFS weight.
    footprint_bytes:
        Resident set size, used by the migration-cost model (Table 2's
        RSS column drives this for the NAS workloads).
    app_id:
        Identifier of the parallel application this task belongs to
        (None for unrelated system tasks).  The user-level speed
        balancer manages exactly the tasks of its application, the
        kernel-level balancers manage everything -- a distinction the
        paper draws repeatedly.
    mem_intensity:
        0.0 (pure CPU, EP-like) .. 1.0 (bandwidth bound).  Feeds the
        memory-bandwidth contention model that reproduces Table 2's
        sub-linear speedups for the memory-intensive NAS codes.

    Every field is a slot: the native engine core reads and writes the
    scheduling fields at fixed offsets (``engine_core.c``), so a new
    field must be added to ``__slots__``.
    """

    __slots__ = (
        "tid", "name", "program", "nice", "weight", "footprint_bytes",
        "app_id", "mem_intensity", "state", "vruntime", "cur_core",
        "allowed_cores", "work_remaining", "wait_mode", "waiting_on",
        "spin_deadline", "needs_advance", "exec_us", "compute_us",
        "started_at", "finished_at", "migrations", "last_migrated_at",
        "last_descheduled_at", "last_core", "migration_debt_us",
        "resident_core", "home_node", "round_slice_remaining",
        "round_number", "throttled",
    )

    def __init__(
        self,
        program: Optional[Program] = None,
        name: str = "",
        nice: int = 0,
        footprint_bytes: int = 0,
        app_id: Optional[str] = None,
        mem_intensity: float = 0.0,
    ) -> None:
        # process-global tids are a debugging convenience only: schedule
        # comparisons go through the sanitizer, which renumbers tids in
        # creation order, so worker processes disagreeing on raw values
        # is harmless by construction
        self.tid: int = next(_task_ids)  # sim-lint: ignore[FLOW004]
        self.name = name or f"task{self.tid}"
        self.program: Program = program if program is not None else _ExitProgram()
        self.nice = nice
        self.weight = nice_to_weight(nice)
        self.footprint_bytes = footprint_bytes
        self.app_id = app_id
        self.mem_intensity = float(mem_intensity)

        self.state = TASK_NEW
        # --- scheduling fields -----------------------------------------
        self.vruntime: float = 0.0
        self.cur_core: Optional[int] = None  # core id when RUNNABLE/RUNNING
        self.allowed_cores: Optional[frozenset[int]] = None  # None = anywhere
        # --- current action --------------------------------------------
        self.work_remaining: float = 0.0  # microseconds at factor 1.0
        self.wait_mode: Optional[WaitMode] = None
        self.waiting_on: Optional["Barrier"] = None
        self.spin_deadline: Optional[int] = None  # BLOCKTIME spin->sleep switch
        self.needs_advance: bool = True  # must ask program for next action
        # --- accounting --------------------------------------------------
        self.exec_us: int = 0  # total occupancy (the taskstats number)
        self.compute_us: int = 0  # occupancy that produced progress
        self.started_at: Optional[int] = None
        self.finished_at: Optional[int] = None
        # --- migration bookkeeping ---------------------------------------
        self.migrations: int = 0
        self.last_migrated_at: int = -(10 ** 12)
        self.last_descheduled_at: int = -(10 ** 12)
        self.last_core: Optional[int] = None
        self.migration_debt_us: float = 0.0  # cache-refill cost to pay
        #: cache of current-or-last core maintained by
        #: :meth:`repro.system.System.note_residency` (the per-core
        #: residency index the user-level balancers query); None once
        #: FINISHED or while the task has never touched a core.
        self.resident_core: Optional[int] = None
        # --- memory placement (NUMA) -------------------------------------
        self.home_node: Optional[int] = None  # first-touch node
        # --- DWRR fields --------------------------------------------------
        self.round_slice_remaining: int = 0
        self.round_number: int = 0
        #: set by the DWRR balancer when the task exhausted its round
        #: slice; a throttled task is runnable but parked off the queue
        #: until its core's round advances.
        self.throttled: bool = False

    # ------------------------------------------------------------------
    def pin(self, cores: frozenset[int] | set[int] | tuple[int, ...]) -> None:
        """Restrict the task to ``cores`` (``sched_setaffinity``)."""
        self.allowed_cores = frozenset(cores)

    def can_run_on(self, cid: int) -> bool:
        return self.allowed_cores is None or cid in self.allowed_cores

    @property
    def is_waiting(self) -> bool:
        """True while the task is inside a synchronization wait."""
        return self.waiting_on is not None

    def exec_time_at(self, now: int, core: Optional["CoreSim"] = None) -> int:
        """Cumulative execution time as of ``now``.

        If the task is currently running, the in-flight interval since
        its dispatch is included -- this is what reading taskstats at an
        arbitrary moment reports.
        """
        total = self.exec_us
        if self.state is TASK_RUNNING and core is not None:
            total += max(0, now - core.dispatch_started_at)
        return total

    def cache_hot(self, now: int, hot_window_us: int) -> bool:
        """Linux's locality heuristic: ran within ``hot_window_us``.

        The paper (Section 2): "a task is designated as cache-hot if it
        has executed recently (~5ms) on the core".  A *running* task is
        trivially hot (and the Linux balancer never migrates it anyway).
        """
        if self.state is TASK_RUNNING:
            return True
        return (now - self.last_descheduled_at) < hot_window_us

    def __repr__(self) -> str:
        return (
            f"<Task {self.name} tid={self.tid} {self.state.value}"
            f" core={self.cur_core} exec={self.exec_us}us mig={self.migrations}>"
        )
