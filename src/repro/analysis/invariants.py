"""Runtime invariant checking for the scheduling simulator.

The paper's speed metric and the balancer's correctness rest on
properties that ordinary assertions scattered through the code cannot
see whole: execution-time accounting must conserve busy time, the
event clock must never run backwards, and the speed balancer's
migration policy (two-interval post-migration block, NUMA-domain
fence) must actually hold at every migration, not just in the code
that tries to enforce it.

:class:`InvariantChecker` is an opt-in observer installed on a
:class:`~repro.system.System` (and its engine).  It validates, at each
event dispatch and each migration:

======== ==============================================================
INV001   Event time is monotonically non-decreasing.
INV002   Per-task ``t_exec <= t_real``: a task cannot have occupied
         cores for longer than the wall-clock time since it started
         (``speed = t_exec / t_real`` must lie in [0, 1] modulo
         measurement noise, which is added downstream).
INV003   Per-core busy-time conservation: the sum of charged execution
         slices equals the core's accumulated ``busy_us``.
INV004   At most one running task per core, and the running task's
         ``state``/``cur_core`` agree with the core that hosts it.
INV005   The speed balancer's post-migration block: a ``speed.pull``
         migration may not involve a core that was itself involved in
         a pull within the block window (two balance intervals by
         default, scaled by the per-level multiplier).
INV006   Domain fences: a ``speed.pull`` migration may not cross a
         scheduling-domain level that every managing balancer has
         disabled (by default, NUMA -- "on NUMA systems we prevent
         inter-NUMA-domain migration").
======== ==============================================================

Violations raise :class:`InvariantViolation` (a
:class:`~repro.sim.engine.SimulationError`) carrying the rule id and
the most recent event trace, so a failing run points at *where* the
simulation went wrong rather than at mysteriously wrong Figure 3/4
numbers at the end.

Usage::

    system = System(machine, seed=0)
    checker = install_invariant_checker(system)   # opt in
    ... run ...
    checker.stats  # {'events': ..., 'charges': ..., 'migrations': ...}

The test suite installs a checker on every :class:`System` it builds
(see ``tests/conftest.py``), and ``repro check --invariants`` runs a
smoke matrix of balancer/workload combinations under it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sched.task import Task, TaskState
from repro.sim.engine import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.core import CoreSim
    from repro.metrics.trace import MigrationEvent
    from repro.system import System

__all__ = [
    "INVARIANTS",
    "InvariantViolation",
    "InvariantConfig",
    "InvariantChecker",
    "install_invariant_checker",
]

#: rule id -> one-line description (mirrors the module docstring table)
INVARIANTS: dict[str, str] = {
    "INV001": "event time must be monotonically non-decreasing",
    "INV002": "per-task t_exec must not exceed t_real",
    "INV003": "per-core busy time must equal the sum of charged slices",
    "INV004": "at most one running task per core, with consistent state",
    "INV005": "no speed.pull involving a core inside its migration-block window",
    "INV006": "no speed.pull across a fenced scheduling domain (NUMA by default)",
}


class InvariantViolation(SimulationError):
    """A runtime invariant failed.

    Attributes
    ----------
    rule:
        The violated rule id (``"INV001"`` .. ``"INV006"``).
    time:
        Simulation time (microseconds) at detection.
    trace:
        The most recent dispatched events, oldest first, as
        ``"t=<us> <label>"`` strings -- the offending event last.
    """

    def __init__(self, rule: str, message: str, time: int, trace: list[str]):
        self.rule = rule
        self.time = time
        self.trace = trace
        tail = "\n  ".join(trace) if trace else "(no events dispatched yet)"
        super().__init__(
            f"{rule} violated at t={time}us: {message}\n"
            f"  [{INVARIANTS.get(rule, '?')}]\n"
            f"recent events:\n  {tail}"
        )


@dataclass
class InvariantConfig:
    """Tunables of the checker.

    Attributes
    ----------
    scan_stride:
        Full consistency scans (INV004 walks every core and task) run
        once per this many dispatched events; cheap O(1) checks run on
        every event/charge.  1 scans at every event -- exact but slow
        on long runs.  Scans additionally run at every migration.
    trace_len:
        How many recent events the violation trace keeps.
    check_balancer_policy:
        Enable INV005/INV006 (requires attached speed balancers; the
        pure-mechanism invariants INV001..INV004 are always checked).
    """

    scan_stride: int = 32
    trace_len: int = 16
    check_balancer_policy: bool = True


class InvariantChecker:
    """Observer enforcing INV001..INV006 on a live :class:`System`."""

    def __init__(self, system: "System", config: Optional[InvariantConfig] = None):
        self.system = system
        self.config = config or InvariantConfig()
        self._trace: deque[str] = deque(maxlen=self.config.trace_len)
        self._last_event_time: int = system.engine.now
        self._events_until_scan: int = self.config.scan_stride
        # busy-time conservation baselines: the checker may be installed
        # on a system that has already run
        self._busy_baseline: dict[int, int] = {}
        self._charged: dict[int, int] = {}
        self._installed = False
        self.stats: dict[str, int] = {"events": 0, "charges": 0, "migrations": 0, "scans": 0}

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> "InvariantChecker":
        """Register the observer hooks.  Idempotent."""
        if self._installed:
            return self
        for core in self.system.cores:
            self._busy_baseline[core.cid] = core.stats.busy_us
            self._charged[core.cid] = 0
        self.system.engine.observers.append(self._on_event)
        self.system.charge_observers.append(self._on_charge)
        self.system.migration_observers.append(self._on_migration)
        self.system.invariant_checker = self
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Remove the observer hooks."""
        if not self._installed:
            return
        self.system.engine.observers.remove(self._on_event)
        self.system.charge_observers.remove(self._on_charge)
        self.system.migration_observers.remove(self._on_migration)
        if self.system.invariant_checker is self:
            self.system.invariant_checker = None
        self._installed = False

    # ------------------------------------------------------------------
    def _fail(self, rule: str, message: str) -> None:
        raise InvariantViolation(
            rule, message, self.system.engine.now, list(self._trace)
        )

    # ------------------------------------------------------------------
    # engine hook: every dispatched event
    # ------------------------------------------------------------------
    def _on_event(self, ev: Event) -> None:
        self.stats["events"] += 1
        self._trace.append(f"t={ev.time} {ev.label or '<unlabelled>'}")
        if ev.time < self._last_event_time:
            self._fail(
                "INV001",
                f"event {ev.label!r} fires at t={ev.time} after the clock "
                f"reached t={self._last_event_time}",
            )
        self._last_event_time = ev.time
        self._events_until_scan -= 1
        if self._events_until_scan <= 0:
            self._events_until_scan = self.config.scan_stride
            self._scan_running_state()

    # ------------------------------------------------------------------
    # system hook: every execution-time charge
    # ------------------------------------------------------------------
    def _on_charge(self, core: "CoreSim", task: Task, dt: int) -> None:
        self.stats["charges"] += 1
        now = self.system.engine.now
        if dt < 0:
            self._fail("INV003", f"negative charge of {dt}us to {task.name}")
        # INV002: t_exec <= t_real
        if task.started_at is not None:
            t_real = now - task.started_at
            if task.exec_us > t_real:
                self._fail(
                    "INV002",
                    f"task {task.name} has t_exec={task.exec_us}us > "
                    f"t_real={t_real}us (started at t={task.started_at}); "
                    f"speed would exceed 1",
                )
        # INV003: charged slices must account for all busy time
        charged = self._charged[core.cid] = self._charged[core.cid] + dt
        busy = core.stats.busy_us - self._busy_baseline[core.cid]
        if charged != busy:
            self._fail(
                "INV003",
                f"core {core.cid} busy_us advanced by {busy}us but the sum "
                f"of charged task slices is {charged}us (drift "
                f"{busy - charged:+d}us)",
            )

    # ------------------------------------------------------------------
    # system hook: every migration
    # ------------------------------------------------------------------
    def _on_migration(self, task: Task, rec: "MigrationEvent") -> None:
        self.stats["migrations"] += 1
        self._scan_running_state()
        if not self.config.check_balancer_policy:
            return
        if rec.reason != "speed.pull" or rec.src is None:
            return
        balancers = self._managing_balancers(task, rec.src, rec.dst)
        if not balancers:
            return  # pull by an actor the checker cannot attribute
        self._check_pull_block(rec, balancers)
        self._check_domain_fence(rec, balancers)

    def _managing_balancers(self, task: Task, src: int, dst: int) -> list:
        """Speed balancers that manage ``task`` and span both cores."""
        out = []
        for b in self.system.user_balancers:
            app = getattr(b, "app", None)
            cores = getattr(b, "requested_cores", None)
            cfg = getattr(b, "config", None)
            if app is None or cores is None or cfg is None:
                continue
            if task in getattr(app, "tasks", []) and src in cores and dst in cores:
                out.append(b)
        return out

    def _check_pull_block(self, rec: "MigrationEvent", balancers: list) -> None:
        """INV005: both involved cores must be outside their block window.

        Mirrors ``SpeedBalancer._try_pull``: the destination's window is
        scaled by the same-core multiplier (1.0), the source's by the
        (dst, src) domain-level multiplier.  The balancer records the
        involvement *after* the migration succeeds, so at this point
        ``last_migration_at`` still holds the previous involvement.
        """
        now = self.system.engine.now
        assert rec.src is not None
        never = -(10**12)
        for b in balancers:
            cfg = b.config
            block = cfg.post_migration_block_intervals * cfg.interval_us
            dst_gap = now - b.last_migration_at.get(rec.dst, never)
            src_gap = now - b.last_migration_at.get(rec.src, never)
            if dst_gap >= block * b._block_mult(rec.dst, rec.dst) and src_gap >= (
                block * b._block_mult(rec.dst, rec.src)
            ):
                return  # at least one managing balancer legitimizes the pull
        self._fail(
            "INV005",
            f"speed.pull of {rec.task_name} from core {rec.src} to core "
            f"{rec.dst} inside the post-migration block window "
            f"(last involvements: "
            f"src={max(b.last_migration_at.get(rec.src, never) for b in balancers)}, "
            f"dst={max(b.last_migration_at.get(rec.dst, never) for b in balancers)})",
        )

    def _check_domain_fence(self, rec: "MigrationEvent", balancers: list) -> None:
        """INV006: the crossed domain level must be enabled somewhere."""
        assert rec.src is not None
        level = self.system.machine.domain_level_between(rec.src, rec.dst)
        if level is None:
            return
        if any(b.config.level_enabled.get(level, True) for b in balancers):
            return
        self._fail(
            "INV006",
            f"speed.pull of {rec.task_name} crossed the fenced "
            f"{level.name} domain boundary (core {rec.src} -> {rec.dst}); "
            f"every managing balancer has {level.name} migrations disabled",
        )

    # ------------------------------------------------------------------
    # full consistency scan (INV004)
    # ------------------------------------------------------------------
    def _scan_running_state(self) -> None:
        self.stats["scans"] += 1
        running_on: dict[int, Task] = {}
        for task in self.system.tasks:
            if task.state != TaskState.RUNNING:
                continue
            cid = task.cur_core
            if cid is None:
                self._fail(
                    "INV004", f"running task {task.name} is not placed on any core"
                )
                continue  # pragma: no cover - _fail always raises
            other = running_on.get(cid)
            if other is not None:
                self._fail(
                    "INV004",
                    f"two running tasks on core {cid}: {other.name} and {task.name}",
                )
            running_on[cid] = task
        for core in self.system.cores:
            cur = core.current
            expected = running_on.get(core.cid)
            if cur is not None:
                if cur.state != TaskState.RUNNING or cur.cur_core != core.cid:
                    self._fail(
                        "INV004",
                        f"core {core.cid} believes it runs {cur.name} but the "
                        f"task is {cur.state.value} on core {cur.cur_core}",
                    )
            elif expected is not None:
                self._fail(
                    "INV004",
                    f"task {expected.name} is RUNNING on core {core.cid} but "
                    f"the core is not executing it",
                )

    def __repr__(self) -> str:
        return (
            f"<InvariantChecker events={self.stats['events']} "
            f"charges={self.stats['charges']} migrations={self.stats['migrations']}>"
        )


def install_invariant_checker(
    system: "System", config: Optional[InvariantConfig] = None
) -> InvariantChecker:
    """Create and install a checker on ``system`` (the one-call opt-in)."""
    return InvariantChecker(system, config).install()
