"""Schedule sanitizer: post-hoc race/conservation analysis of traces.

PR 1's linter guards the *source* and its invariant checker guards the
*live* engine state; this module guards the third artifact everything
downstream is computed from -- the **recorded trace**.  Every figure,
metric and ``repro bench`` number is derived from
:class:`~repro.metrics.trace.TraceRecorder` segments and per-task
accounting, so a recording bug (or an engine bug the live checker's
sampling missed) silently corrupts results without failing anything.
The sanitizer analyzes a completed run's trace the way TSan analyzes a
threaded execution: it recomputes the properties the simulator promises
and reports each breach as a machine-readable finding.

Rule catalogue
--------------
======== =============================================================
SAN001   Migration race: the same task charged on two different cores
         in overlapping time intervals.  A task occupies one core at a
         time; overlap means a migration path charged it twice.
SAN002   Double charge: two segments on one core overlap in time.  A
         core runs one task at a time; overlap inflates ``busy_us``.
SAN003   Per-task conservation drift: a task's ``t_exec`` recomputed
         from its trace segments diverges from the accounting
         (``task.exec_us``/``AppRunResult.thread_exec_us``) that the
         speed metric ``speed = t_exec / t_real`` is built on.
SAN004   Per-core conservation drift: a core's busy time recomputed
         from the trace diverges from ``CoreStats.busy_us``.
SAN005   Recorded policy violation: a ``speed.pull`` migration event
         inside the post-migration block window implied by the
         *recorded* pull history (the trace-level cross-check of the
         live INV005).
SAN006   Recorded policy violation: a ``speed.pull`` across a
         scheduling-domain level every managing balancer has disabled
         (NUMA by default; the trace-level cross-check of INV006).
SAN007   Truncated trace: the recorder dropped segments or migration
         events beyond its limit, so every trace-derived metric of
         this run is computed from an incomplete history.
SAN008   Differential determinism divergence: two perturbed re-runs of
         the same scenario (different ``PYTHONHASHSEED`` subprocesses,
         serial vs parallel workers, observers on vs off) produced
         different canonical digests.  Emitted by
         :mod:`repro.analysis.differential`.
======== =============================================================

SAN001--SAN007 are pure functions of a finished run's artifacts; use
:func:`sanitize_system` on a traced :class:`~repro.system.System` (the
``repro sanitize`` CLI does this for every scenario smoke), or call the
individual ``check_*`` functions on hand-built traces -- the fault-
injection tests do exactly that.

Canonical digests
-----------------
:func:`trace_digest` and :func:`run_digest` reduce a run to a SHA-256
hex string over a canonical byte serialization: segments and migration
events in recorded order (with task ids renumbered densely in order of
first appearance, so the process-global tid counter cannot leak
between otherwise identical runs), the result's
:meth:`~repro.metrics.results.AppRunResult.canonical_json` and the
engine :meth:`~repro.sim.engine.Engine.fingerprint`.  Equal digests ==
bit-identical schedules; the differential checker enforces exactly
that.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count
from operator import sub
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.metrics.trace import MigrationEvent, Segment, TraceRecorder
from repro.topology.machine import DomainLevel, Machine

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.results import AppRunResult
    from repro.sim.engine import Engine
    from repro.store import ResultStore
    from repro.system import System

__all__ = [
    "SAN_RULES",
    "SanFinding",
    "PullPolicy",
    "check_overlaps",
    "check_conservation",
    "check_pull_policy",
    "check_truncation",
    "analyze_trace",
    "sanitize_system",
    "sanitize_stored",
    "trace_digest",
    "run_digest",
]

#: rule id -> one-line description (mirrors the module docstring table)
SAN_RULES: dict[str, str] = {
    "SAN001": "migration race: one task charged on two cores in overlapping intervals",
    "SAN002": "double charge: overlapping segments on one core",
    "SAN003": "per-task t_exec from the trace diverges from the accounting",
    "SAN004": "per-core busy time from the trace diverges from the accounting",
    "SAN005": "speed.pull recorded inside the post-migration block window",
    "SAN006": "speed.pull recorded across a fenced scheduling domain",
    "SAN007": "trace truncated: records dropped beyond the recorder limit",
    "SAN008": "differential determinism divergence between perturbed runs",
}

#: cap on findings emitted per rule per analysis -- a systematically
#: corrupt trace yields thousands of identical overlaps; the first few
#: localize the bug and the count is reported in the last finding.
MAX_FINDINGS_PER_RULE = 16


@dataclass(frozen=True)
class SanFinding:
    """One sanitizer finding.

    ``citations`` are the offending trace records rendered as strings
    (segments as ``tid@core [start,end) kind``, migrations as the
    :class:`~repro.metrics.trace.MigrationEvent` fields), so a finding
    is actionable without re-running anything.
    """

    code: str  #: "SAN001" .. "SAN008"
    severity: str  #: "error" | "warning"
    message: str
    context: str = ""  #: scenario / run label
    citations: tuple[str, ...] = ()

    def format(self) -> str:
        where = f"{self.context}: " if self.context else ""
        cites = "".join(f"\n    {c}" for c in self.citations)
        return f"{where}{self.code} [{self.severity}] {self.message}{cites}"

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "context": self.context,
            "citations": list(self.citations),
            "rule": SAN_RULES.get(self.code, "?"),
        }


def _cite_segment(s: Segment) -> str:
    return f"segment tid={s.tid} ({s.task_name}) core={s.core} [{s.start},{s.end}) {s.kind}"


def _cite_migration(m: MigrationEvent) -> str:
    return (
        f"migration t={m.time} tid={m.tid} ({m.task_name}) "
        f"{m.src}->{m.dst} reason={m.reason!r}"
    )


class _Collector:
    """Accumulates findings with the per-rule cap applied."""

    def __init__(self, context: str):
        self.context = context
        self.findings: list[SanFinding] = []
        self._per_rule: dict[str, int] = {}

    def emit(
        self,
        code: str,
        message: str,
        citations: Sequence[str] = (),
        severity: str = "error",
    ) -> None:
        n = self._per_rule.get(code, 0) + 1
        self._per_rule[code] = n
        if n > MAX_FINDINGS_PER_RULE:
            return
        if n == MAX_FINDINGS_PER_RULE:
            message += f" (further {code} findings suppressed)"
        self.findings.append(
            SanFinding(
                code=code,
                severity=severity,
                message=message,
                context=self.context,
                citations=tuple(citations),
            )
        )


# ----------------------------------------------------------------------
# SAN001 / SAN002: overlap detection
# ----------------------------------------------------------------------
#: one segment in a sweep: (start, end, index into the trace's columns)
_Span = tuple[int, int, int]


def _spans_by(keys: Iterable[int], trace: TraceRecorder) -> dict[int, list[_Span]]:
    """The segments' ``(start, end, index)`` tuples grouped by ``keys``
    (a tid or core column), each group in recorded order."""
    groups: dict[int, list[_Span]] = defaultdict(list)
    for key, span in zip(keys, zip(trace._s_start, trace._s_end, count())):
        groups[key].append(span)
    return groups


def _overlapping_pairs(spans: list[_Span]) -> Iterable[tuple[int, int]]:
    """Adjacent-in-time overlapping pairs of an interval set, as pairs
    of segment indices.

    Sorts by (start, end, index) -- recorded order breaks ties -- and
    sweeps with the maximum end seen so far; each segment starting
    before that maximum overlaps the segment that attained it.
    O(n log n), and reports each breach once rather than
    quadratically.
    """
    spans.sort()
    reach_end, reach = spans[0][1], spans[0][2]
    for start, end, i in spans[1:]:
        if start < reach_end:
            yield reach, i
        if end > reach_end:
            reach_end, reach = end, i


def check_overlaps(trace: TraceRecorder, context: str = "") -> list[SanFinding]:
    """SAN001 (same tid, two cores) and SAN002 (one core) overlaps.

    Sweeps the recorder's columns; a :class:`Segment` is built only to
    cite a finding.
    """
    out = _Collector(context)
    cores = trace._s_core
    seg = trace.segments
    by_tid = _spans_by(trace._s_tid, trace)
    for tid in sorted(by_tid):
        for ia, ib in _overlapping_pairs(by_tid[tid]):
            if cores[ia] == cores[ib]:
                continue  # same-core double charge; reported by SAN002
            a, b = seg[ia], seg[ib]
            out.emit(
                "SAN001",
                f"task {tid} ({b.task_name}) charged on cores {a.core} and "
                f"{b.core} in overlapping intervals "
                f"[{a.start},{a.end}) and [{b.start},{b.end})",
                [_cite_segment(a), _cite_segment(b)],
            )
    by_core = _spans_by(cores, trace)
    for core in sorted(by_core):
        for ia, ib in _overlapping_pairs(by_core[core]):
            a, b = seg[ia], seg[ib]
            out.emit(
                "SAN002",
                f"core {core} charged twice over [{b.start},{min(a.end, b.end)}): "
                f"tasks {a.tid} ({a.task_name}) and {b.tid} ({b.task_name})",
                [_cite_segment(a), _cite_segment(b)],
            )
    return out.findings


# ----------------------------------------------------------------------
# SAN003 / SAN004: conservation
# ----------------------------------------------------------------------
def _summed_by(keys: Iterable[int], durations: list[int]) -> dict[int, int]:
    """Total duration per key of the key column."""
    sums: dict[int, int] = defaultdict(int)
    for key, d in zip(keys, durations):
        sums[key] += d
    return sums


def check_conservation(
    trace: TraceRecorder,
    task_exec_us: Optional[dict[int, int]] = None,
    core_busy_us: Optional[dict[int, int]] = None,
    task_names: Optional[dict[int, str]] = None,
    context: str = "",
) -> list[SanFinding]:
    """SAN003/SAN004: re-derive accounting from the trace and compare.

    ``task_exec_us`` maps tid -> accounted ``exec_us`` (tasks absent
    from the trace are expected at 0); ``core_busy_us`` maps core id ->
    accounted ``busy_us``.  With neither there is nothing to compare
    and nothing is summed.  A truncated trace cannot be re-summed --
    callers should gate on :func:`check_truncation` first (this
    function skips silently, the truncation finding carries the story).
    """
    out = _Collector(context)
    if trace.truncated or (task_exec_us is None and core_busy_us is None):
        return out.findings
    names = task_names or {}
    durations = list(map(sub, trace._s_end, trace._s_start))
    if task_exec_us is not None:
        traced_exec = _summed_by(trace._s_tid, durations)
        for tid in sorted(set(traced_exec) | set(task_exec_us)):
            got = traced_exec.get(tid, 0)
            want = task_exec_us.get(tid)
            if want is None:
                out.emit(
                    "SAN003",
                    f"trace charges {got}us to task {tid} "
                    f"({names.get(tid, '?')}) which the accounting does not know",
                )
            elif got != want:
                out.emit(
                    "SAN003",
                    f"task {tid} ({names.get(tid, '?')}): trace segments sum to "
                    f"t_exec={got}us but the accounting says {want}us "
                    f"(drift {got - want:+d}us)",
                )
    if core_busy_us is not None:
        traced_busy = _summed_by(trace._s_core, durations)
        for cid in sorted(set(traced_busy) | set(core_busy_us)):
            got = traced_busy.get(cid, 0)
            want = core_busy_us.get(cid, 0)
            if got != want:
                out.emit(
                    "SAN004",
                    f"core {cid}: trace segments sum to busy={got}us but the "
                    f"accounting says {want}us (drift {got - want:+d}us)",
                )
    return out.findings


# ----------------------------------------------------------------------
# SAN005 / SAN006: recorded pull policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PullPolicy:
    """The migration-policy facts of one speed balancer, as plain data.

    Extracted from a live :class:`~repro.core.speed_balancer
    .SpeedBalancer` by :func:`sanitize_system` (or built by hand in
    tests), so the policy replay depends only on recorded history plus
    configuration -- never on balancer state.
    """

    cores: frozenset[int]
    tids: frozenset[int]
    interval_us: int
    block_intervals: float
    level_enabled: dict[DomainLevel, bool] = field(default_factory=dict)
    level_block_multiplier: dict[DomainLevel, float] = field(default_factory=dict)

    @classmethod
    def of_balancer(cls, balancer) -> Optional["PullPolicy"]:
        """Snapshot a speed balancer's policy; None if it has none."""
        app = getattr(balancer, "app", None)
        cores = getattr(balancer, "requested_cores", None)
        cfg = getattr(balancer, "config", None)
        if app is None or cores is None or cfg is None:
            return None
        return cls(
            cores=frozenset(cores),
            tids=frozenset(t.tid for t in getattr(app, "tasks", [])),
            interval_us=cfg.interval_us,
            block_intervals=cfg.post_migration_block_intervals,
            level_enabled=dict(cfg.level_enabled),
            level_block_multiplier=dict(cfg.level_block_multiplier),
        )

    def manages(self, ev: MigrationEvent) -> bool:
        return (
            ev.tid in self.tids
            and ev.src is not None
            and ev.src in self.cores
            and ev.dst in self.cores
        )

    def block_window_us(self, machine: Optional[Machine], dst: int, other: int) -> float:
        """The block window governing ``other``'s involvement in a pull
        to ``dst`` (mirrors ``SpeedBalancer._block_mult``)."""
        block = self.block_intervals * self.interval_us
        if dst == other or machine is None:
            return block
        level = machine.domain_level_between(dst, other)
        if level is None:
            return block
        return block * self.level_block_multiplier.get(level, 1.0)


def check_pull_policy(
    trace: TraceRecorder,
    policies: Sequence[PullPolicy],
    machine: Optional[Machine] = None,
    context: str = "",
) -> list[SanFinding]:
    """SAN005/SAN006: replay the recorded migration history against the
    balancer policy.

    The replay mirrors the balancer's own bookkeeping exactly: only
    successful ``speed.pull`` events update a core's involvement time,
    each pull updates both involved cores, and each balancer tracks its
    own windows (a pull is attributed to the policies that manage the
    victim's tid and span both cores).  ``machine`` supplies scheduling
    -domain levels; without one, level multipliers collapse to 1 and
    the domain-fence check (SAN006) is skipped.
    """
    out = _Collector(context)
    if not policies:
        return out.findings  # no balancer can be held to a window
    never = -(10**12)
    # per-policy involvement times, keyed by policy index
    involved: list[dict[int, int]] = [dict() for _ in policies]
    for ev in trace.migrations:
        if ev.reason != "speed.pull" or ev.src is None:
            continue
        managing = [i for i, p in enumerate(policies) if p.manages(ev)]
        if not managing:
            continue  # a pull the recorded policies cannot attribute
        if machine is not None:
            level = machine.domain_level_between(ev.src, ev.dst)
            if level is not None and not any(
                policies[i].level_enabled.get(level, True) for i in managing
            ):
                out.emit(
                    "SAN006",
                    f"speed.pull of task {ev.tid} ({ev.task_name}) at t={ev.time} "
                    f"crossed the fenced {level.name} domain boundary "
                    f"(core {ev.src} -> {ev.dst}); every managing balancer has "
                    f"{level.name} migrations disabled",
                    [_cite_migration(ev)],
                )
        legitimate = False
        for i in managing:
            p = policies[i]
            dst_gap = ev.time - involved[i].get(ev.dst, never)
            src_gap = ev.time - involved[i].get(ev.src, never)
            if dst_gap >= p.block_window_us(machine, ev.dst, ev.dst) and (
                src_gap >= p.block_window_us(machine, ev.dst, ev.src)
            ):
                legitimate = True
        if not legitimate:
            out.emit(
                "SAN005",
                f"speed.pull of task {ev.tid} ({ev.task_name}) at t={ev.time} "
                f"from core {ev.src} to core {ev.dst} inside the "
                f"post-migration block window implied by the recorded pull "
                f"history",
                [_cite_migration(ev)],
            )
        for i in managing:
            involved[i][ev.src] = ev.time
            involved[i][ev.dst] = ev.time
    return out.findings


# ----------------------------------------------------------------------
# SAN007: truncation
# ----------------------------------------------------------------------
def check_truncation(trace: TraceRecorder, context: str = "") -> list[SanFinding]:
    """SAN007: the recorder dropped records; the history is incomplete."""
    out = _Collector(context)
    if trace.truncated:
        out.emit(
            "SAN007",
            f"trace truncated at the {trace.limit}-record limit "
            f"({trace.dropped} segments, {trace.migrations_dropped} migration "
            "events dropped); every trace-derived metric of this run is "
            "computed from an incomplete history",
        )
    return out.findings


# ----------------------------------------------------------------------
# whole-run entry points
# ----------------------------------------------------------------------
def analyze_trace(
    trace: TraceRecorder,
    task_exec_us: Optional[dict[int, int]] = None,
    core_busy_us: Optional[dict[int, int]] = None,
    task_names: Optional[dict[int, str]] = None,
    policies: Sequence[PullPolicy] = (),
    machine: Optional[Machine] = None,
    context: str = "",
) -> list[SanFinding]:
    """Run every trace-level check; findings in rule order."""
    findings: list[SanFinding] = []
    findings += check_truncation(trace, context)
    findings += check_overlaps(trace, context)
    findings += check_conservation(
        trace, task_exec_us, core_busy_us, task_names, context
    )
    findings += check_pull_policy(trace, policies, machine, context)
    findings.sort(key=lambda f: f.code)
    return findings


def sanitize_system(
    system: "System",
    result: Optional["AppRunResult"] = None,
    context: str = "",
) -> list[SanFinding]:
    """Sanitize a finished, traced run end to end.

    Pulls every cross-checkable quantity off the :class:`System`: the
    trace, per-task ``exec_us``, per-core ``busy_us``, the machine's
    scheduling domains and each attached speed balancer's policy.  When
    the :class:`~repro.metrics.results.AppRunResult` is supplied too,
    its ``thread_exec_us`` is additionally checked against the task
    accounting it was copied from (a drift there means the results
    layer, not the simulator, corrupted the numbers).
    """
    trace = system.trace
    if trace is None:
        raise ValueError(
            "sanitize_system needs a traced run; build the System with "
            "trace=True (or run_app(trace=True, return_system=True))"
        )
    policies = []
    for b in system.user_balancers:
        p = PullPolicy.of_balancer(b)
        if p is not None:
            policies.append(p)
    findings = analyze_trace(
        trace,
        task_exec_us={t.tid: t.exec_us for t in system.tasks},
        core_busy_us={c.cid: c.stats.busy_us for c in system.cores},
        task_names={t.tid: t.name for t in system.tasks},
        policies=policies,
        machine=system.machine,
        context=context,
    )
    if result is not None:
        out = _Collector(context)
        app_exec = [t.exec_us for t in system.tasks_of_app(result.app_name)]
        if app_exec != list(result.thread_exec_us):
            out.emit(
                "SAN003",
                f"RunResult.thread_exec_us={result.thread_exec_us} diverges "
                f"from the task accounting {app_exec} for app "
                f"{result.app_name!r}",
            )
        findings += out.findings
        findings.sort(key=lambda f: f.code)
    return findings


def sanitize_stored(
    store: "ResultStore",
    digest: str,
    context: str = "",
) -> list[SanFinding]:
    """Sanitize a trace archived in a content-addressed store.

    Loads the (integrity-checked) trace stored under ``digest`` by
    ``repro submit --trace`` / ``JobService.submit(trace=True)`` and
    runs every check that needs only the recorded history itself
    (truncation, migration races, double charges).  The live-System
    cross-checks of :func:`sanitize_system` need accounting state that
    is not archived; use that entry point for fresh runs.

    Raises ``ValueError`` when the digest is absent or was stored
    without a trace; store-level corruption surfaces as the store's own
    ``StoreIntegrityError``.  The entry is read and verified once
    (:meth:`~repro.store.store.ResultStore.get_with_trace`).
    """
    got = store.get_with_trace(digest)
    if got is None:
        raise ValueError(f"no store entry for digest {digest!r}")
    trace = got[1]
    if trace is None:
        raise ValueError(
            f"entry {digest!r} was stored without a trace; re-run it with "
            "trace=True (repro submit --trace) to archive one"
        )
    return analyze_trace(trace, context=context or f"stored:{digest[:12]}")


# ----------------------------------------------------------------------
# canonical digests
# ----------------------------------------------------------------------
def trace_digest(trace: TraceRecorder) -> str:
    """SHA-256 over the canonical byte form of a recorded history.

    Task ids are renumbered densely in order of first appearance across
    the recorded stream, so the digest is invariant under the process-
    global tid counter's starting value -- two runs of the same scenario
    in one process digest identically -- while remaining sensitive to
    every scheduling decision (who ran where, when, for how long, what
    migrated and why, in what order).
    """
    remap: dict[int, int] = {}

    def tid_of(tid: int) -> int:
        if tid not in remap:
            remap[tid] = len(remap)
        return remap[tid]

    h = hashlib.sha256()
    # read the recorder's columns directly (iter_*_tuples): the digest
    # is the sanitizer's hottest loop and per-record dataclass
    # materialization would dominate it
    for tid, name, core, start, end, kind in trace.iter_segment_tuples():
        h.update(f"S {tid_of(tid)} {name} {core} {start} {end} {kind}\n".encode())
    for time, tid, name, src, dst, forced, reason in trace.iter_migration_tuples():
        h.update(
            f"M {time} {tid_of(tid)} {name} {src} {dst} "
            f"{int(forced)} {reason}\n".encode()
        )
    h.update(f"dropped {trace.dropped} {trace.migrations_dropped}\n".encode())
    return h.hexdigest()


def run_digest(
    result: Optional["AppRunResult"] = None,
    trace: Optional[TraceRecorder] = None,
    engine: Optional["Engine"] = None,
) -> str:
    """Canonical digest of a whole run: results + trace + engine.

    Any supplied part contributes; the differential determinism checker
    compares full digests (all three) for in-process perturbations and
    result-only digests for cross-process worker fan-out, where traces
    do not cross the process boundary.
    """
    h = hashlib.sha256()
    if result is not None:
        h.update(result.canonical_json().encode())
        h.update(b"\n")
    if trace is not None:
        h.update(trace_digest(trace).encode())
        h.update(b"\n")
    if engine is not None:
        fp = engine.fingerprint()
        h.update(f"E {fp['now']} {fp['dispatched']} {fp['scheduled']}\n".encode())
    return h.hexdigest()
