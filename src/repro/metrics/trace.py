"""Execution tracing: who ran where, when, doing what.

Enable with ``System(..., trace=True)`` (or attach a
:class:`TraceRecorder` later).  Every charged execution interval is
recorded as a :class:`Segment` and every migration as a
:class:`MigrationEvent`; the analysis helpers answer the questions the
paper's figures are built from -- per-core utilization, per-thread CPU
share over time windows (the speed metric itself), and an ASCII Gantt
chart that makes rotation visible:

>>> print(ascii_gantt(system.trace, n_cores=2, width=60))   # doctest: +SKIP
core  0 AAAAAAAAaaaaBBBB....
core  1 BBBBBBBBBBAAAAAA....

Capital letters mark compute, lowercase synchronization waiting, ``.``
idle time.

Storage layout
--------------
The recorder is *columnar*: segments and migrations live in parallel
``array``-backed columns (64-bit timestamps/tids, 32-bit ids) with
task names, kinds and reasons interned into small string tables.  The
hot path -- one :meth:`TraceRecorder.record` per charged interval --
appends six scalars and allocates nothing; :class:`Segment` /
:class:`MigrationEvent` dataclasses are materialized lazily when the
``segments`` / ``migrations`` sequence views are indexed.  The
analysis helpers in this module, the archive round trip
(:func:`~repro.metrics.export.trace_to_dict` /
:func:`~repro.metrics.export.trace_from_dict`) and the sanitizer's
checks and digest read the columns directly.

Bounds
------
The recorder is bounded: past ``limit`` segments it drops new segment
records and counts them in :attr:`TraceRecorder.dropped`; migrations
have their own cap, ``migration_limit`` (defaulting to ``limit``),
counted in :attr:`TraceRecorder.migrations_dropped`.  A trace with
*either* counter non-zero is truncated -- not a representative sample;
everything of that record kind after its cut-off is missing -- so the
analysis helpers refuse to compute over one (raising
:class:`TraceTruncatedError`) unless explicitly told otherwise, and the
schedule sanitizer (:mod:`repro.analysis.sanitizer`) reports truncation
as a finding of its own.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "Segment",
    "MigrationEvent",
    "TraceRecorder",
    "TraceTruncatedError",
    "core_utilization",
    "task_share",
    "ascii_gantt",
]


class TraceTruncatedError(ValueError):
    """An analysis was asked to treat a truncated trace as complete.

    Raised by :func:`core_utilization` / :func:`task_share` /
    :func:`ascii_gantt` when the recorder dropped records
    (``trace.dropped > 0`` or ``trace.migrations_dropped > 0``):
    utilization and share values computed from a prefix of the run
    would silently read as if cores went idle and tasks stopped at the
    cut-off.  Pass ``allow_truncated=True`` to compute over the
    recorded prefix anyway.
    """


@dataclass(frozen=True)
class Segment:
    """One charged execution interval."""

    tid: int
    task_name: str
    core: int
    start: int
    end: int
    #: "run" for productive compute, "wait" for spin/yield burn
    kind: str

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class MigrationEvent:
    """One migration: a trace record, and what a
    :attr:`~repro.system.System.migration_observers` hook receives."""

    time: int
    tid: int
    task_name: str
    src: Optional[int]
    dst: int
    forced: bool
    reason: str


class _LazyView(Sequence):
    """Columnar records viewed as a sequence of materialized objects.

    Supports everything the old plain-list attributes did -- ``len``,
    indexing (negative and slices), iteration, ``==`` against lists --
    while the data stays in the recorder's columns; each access builds
    the dataclass on the fly.
    """

    __slots__ = ("_rec",)

    def __init__(self, rec: "TraceRecorder") -> None:
        self._rec = rec

    def _materialize(self, i: int):
        raise NotImplementedError

    def _count(self) -> int:
        raise NotImplementedError

    def __len__(self) -> int:
        return self._count()

    def __getitem__(self, i):
        n = self._count()
        if isinstance(i, slice):
            return [self._materialize(j) for j in range(*i.indices(n))]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace view index out of range")
        return self._materialize(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, _LazyView)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))


class _SegmentsView(_LazyView):
    __slots__ = ()

    def _count(self) -> int:
        return len(self._rec._s_tid)

    def _materialize(self, i: int) -> Segment:
        r = self._rec
        return Segment(
            r._s_tid[i],
            r._strings[r._s_name[i]],
            r._s_core[i],
            r._s_start[i],
            r._s_end[i],
            r._strings[r._s_kind[i]],
        )


class _MigrationsView(_LazyView):
    __slots__ = ()

    def _count(self) -> int:
        return len(self._rec._m_time)

    def _materialize(self, i: int) -> MigrationEvent:
        r = self._rec
        src = r._m_src[i]
        return MigrationEvent(
            r._m_time[i],
            r._m_tid[i],
            r._strings[r._m_name[i]],
            None if src < 0 else src,
            r._m_dst[i],
            bool(r._m_forced[i]),
            r._strings[r._m_reason[i]],
        )


class TraceRecorder:
    """Collects execution segments and migration events (bounded).

    Past ``limit`` segment records new segments are dropped and counted
    in :attr:`dropped`; past ``migration_limit`` migration records
    (default: ``limit``) new migrations are dropped and counted in
    :attr:`migrations_dropped`.  A recorder with either counter
    non-zero is :attr:`truncated` and the analysis helpers in this
    module refuse to treat it as a complete history.

    Storage is columnar (see the module docstring): ``segments`` and
    ``migrations`` are lazy sequence views over parallel arrays.  The
    archive form (:func:`repro.metrics.export.trace_to_dict`) is read
    with :meth:`iter_segment_tuples` / :meth:`iter_migration_tuples`
    and written back with :meth:`load_rows`, column by column.
    """

    def __init__(self, limit: int = 2_000_000, migration_limit: Optional[int] = None):
        self.limit = limit
        self.migration_limit = limit if migration_limit is None else migration_limit
        self.dropped = 0
        self.migrations_dropped = 0
        #: interned string table shared by names, kinds and reasons
        self._strings: list[str] = []
        self._string_id: dict[str, int] = {}
        # segment columns
        self._s_tid = array("q")
        self._s_name = array("i")
        self._s_core = array("i")
        self._s_start = array("q")
        self._s_end = array("q")
        self._s_kind = array("i")
        # migration columns (src -1 encodes None)
        self._m_time = array("q")
        self._m_tid = array("q")
        self._m_name = array("i")
        self._m_src = array("i")
        self._m_dst = array("i")
        self._m_forced = array("b")
        self._m_reason = array("i")
        # maintained span over segments
        self._span_lo = 0
        self._span_hi = 0

    # ------------------------------------------------------------------
    # recording (the hot path: scalar appends only)
    # ------------------------------------------------------------------
    def _intern(self, s: str) -> int:
        sid = self._string_id.get(s)
        if sid is None:
            sid = self._string_id[s] = len(self._strings)
            self._strings.append(s)
        return sid

    def record(self, tid: int, name: str, core: int, start: int, end: int, kind: str) -> None:
        if end <= start:
            return
        n = len(self._s_tid)
        if n >= self.limit:
            self.dropped += 1
            return
        self._s_tid.append(tid)
        self._s_name.append(self._intern(name))
        self._s_core.append(core)
        self._s_start.append(start)
        self._s_end.append(end)
        self._s_kind.append(self._intern(kind))
        if n == 0 or start < self._span_lo:
            self._span_lo = start
        if end > self._span_hi:
            self._span_hi = end

    def record_migration(
        self,
        time: int,
        tid: int,
        task_name: str,
        src: Optional[int],
        dst: int,
        forced: bool,
        reason: str,
    ) -> None:
        if len(self._m_time) >= self.migration_limit:
            self.migrations_dropped += 1
            return
        self._m_time.append(time)
        self._m_tid.append(tid)
        self._m_name.append(self._intern(task_name))
        self._m_src.append(-1 if src is None else src)
        self._m_dst.append(dst)
        self._m_forced.append(1 if forced else 0)
        self._m_reason.append(self._intern(reason))

    # ------------------------------------------------------------------
    # record access
    # ------------------------------------------------------------------
    @property
    def segments(self) -> _SegmentsView:
        """Sequence view materializing :class:`Segment` lazily."""
        return _SegmentsView(self)

    @property
    def migrations(self) -> _MigrationsView:
        """Sequence view materializing :class:`MigrationEvent` lazily."""
        return _MigrationsView(self)

    def iter_segment_tuples(self) -> Iterator[tuple[int, str, int, int, int, str]]:
        """``(tid, name, core, start, end, kind)`` per segment, zipped
        from the columns without materializing :class:`Segment`
        objects (the archive's rows, the digest's records)."""
        name = self._strings.__getitem__
        return zip(
            self._s_tid, map(name, self._s_name), self._s_core,
            self._s_start, self._s_end, map(name, self._s_kind),
        )

    def iter_migration_tuples(
        self,
    ) -> Iterator[tuple[int, int, str, Optional[int], int, int, str]]:
        """``(time, tid, name, src, dst, forced, reason)`` per migration
        (``src`` None for a first placement, ``forced`` 0 or 1), zipped
        from the columns without materializing :class:`MigrationEvent`
        objects."""
        name = self._strings.__getitem__
        return zip(
            self._m_time, self._m_tid, map(name, self._m_name),
            [None if src < 0 else src for src in self._m_src],
            self._m_dst, self._m_forced, map(name, self._m_reason),
        )

    def load_rows(
        self, segments: Sequence[Sequence], migrations: Sequence[Sequence]
    ) -> None:
        """Replace every record with rows in :meth:`iter_segment_tuples`
        / :meth:`iter_migration_tuples` form (the archive's), verbatim:
        the caps are not applied and the drop counters are left alone.
        Each column is filled in one pass; a row of the wrong width
        raises ``ValueError``."""
        intern = self._intern
        tid, name, core, start, end, kind = _columns(segments, 6, "segment")
        self._s_tid = array("q", tid)
        self._s_name = array("i", map(intern, name))
        self._s_core = array("i", core)
        self._s_start = array("q", start)
        self._s_end = array("q", end)
        self._s_kind = array("i", map(intern, kind))
        if self._s_tid:
            self._span_lo = min(self._s_start)
            self._span_hi = max(0, max(self._s_end))
        else:
            self._span_lo = self._span_hi = 0
        time, tid, name, src, dst, forced, reason = _columns(migrations, 7, "migration")
        self._m_time = array("q", time)
        self._m_tid = array("q", tid)
        self._m_name = array("i", map(intern, name))
        self._m_src = array("i", [-1 if s is None else s for s in src])
        self._m_dst = array("i", dst)
        self._m_forced = array("b", [1 if f else 0 for f in forced])
        self._m_reason = array("i", map(intern, reason))

    # ------------------------------------------------------------------
    @property
    def truncated(self) -> bool:
        """True when any record was dropped beyond its cap."""
        return self.dropped > 0 or self.migrations_dropped > 0

    @property
    def span(self) -> tuple[int, int]:
        """(first start, last end) over all segments (maintained, O(1))."""
        if not self._s_tid:
            return (0, 0)
        return (self._span_lo, self._span_hi)


def _columns(rows: Sequence[Sequence], width: int, what: str) -> list[tuple]:
    """Transpose equal-width rows into ``width`` column tuples."""
    if not rows:
        return [()] * width
    cols = list(zip(*rows, strict=True))
    if len(cols) != width:
        raise ValueError(f"a {what} row has {len(cols)} fields, not {width}")
    return cols


def _require_complete(trace: TraceRecorder, allow_truncated: bool, what: str) -> None:
    if allow_truncated or not trace.truncated:
        return
    raise TraceTruncatedError(
        f"{what} over a truncated trace ({trace.dropped} segments dropped "
        f"beyond the {trace.limit}-segment limit and "
        f"{trace.migrations_dropped} migrations dropped beyond the "
        f"{trace.migration_limit}-migration limit); the result would "
        "silently exclude everything after the cut-off.  Raise the "
        "recorder limits, or pass allow_truncated=True to compute over "
        "the recorded prefix."
    )


def core_utilization(
    trace: TraceRecorder,
    n_cores: int,
    start: Optional[int] = None,
    end: Optional[int] = None,
    allow_truncated: bool = False,
) -> list[float]:
    """Busy fraction per core over [start, end).

    Raises :class:`TraceTruncatedError` on a truncated trace unless
    ``allow_truncated`` is set (dropped segments would read as idle).
    """
    _require_complete(trace, allow_truncated, "core_utilization")
    t0, t1 = trace.span
    start = t0 if start is None else start
    end = t1 if end is None else end
    if end <= start:
        return [0.0] * n_cores
    busy = [0] * n_cores
    for core, s_start, s_end in zip(trace._s_core, trace._s_start, trace._s_end):
        lo = s_start if s_start > start else start
        hi = s_end if s_end < end else end
        if hi > lo:
            busy[core] += hi - lo
    return [b / (end - start) for b in busy]


def task_share(
    trace: TraceRecorder,
    tid: int,
    start: int,
    end: int,
    kind: Optional[str] = None,
    allow_truncated: bool = False,
) -> float:
    """CPU share of one task over a window -- the speed metric, post hoc.

    Raises :class:`TraceTruncatedError` on a truncated trace unless
    ``allow_truncated`` is set (dropped segments would deflate the share).
    """
    _require_complete(trace, allow_truncated, "task_share")
    if end <= start:
        raise ValueError("empty window")
    kid = -1
    if kind is not None:
        kid = trace._string_id.get(kind, -2)  # -2: kind never recorded
    got = 0
    for s_tid, s_start, s_end, s_kid in zip(
        trace._s_tid, trace._s_start, trace._s_end, trace._s_kind
    ):
        if s_tid != tid:
            continue
        if kind is not None and s_kid != kid:
            continue
        lo = s_start if s_start > start else start
        hi = s_end if s_end < end else end
        if hi > lo:
            got += hi - lo
    return got / (end - start)


def ascii_gantt(
    trace: TraceRecorder,
    n_cores: int,
    width: int = 80,
    start: Optional[int] = None,
    end: Optional[int] = None,
    allow_truncated: bool = False,
) -> str:
    """Render per-core timelines; letters identify tasks (A..Z cycling).

    Capitals = compute, lowercase = synchronization wait, ``.`` = idle.
    When several segments land in one character cell, the longest wins.
    Raises :class:`TraceTruncatedError` on a truncated trace unless
    ``allow_truncated`` is set (the chart would render phantom idle time).
    """
    _require_complete(trace, allow_truncated, "ascii_gantt")
    t0, t1 = trace.span
    start = t0 if start is None else start
    end = t1 if end is None else end
    if end <= start:
        return "(empty trace)"
    cell = (end - start) / width
    # stable task -> letter mapping in first-seen order
    letters: dict[int, str] = {}
    for tid in trace._s_tid:
        if tid not in letters:
            letters[tid] = chr(ord("A") + len(letters) % 26)
    wait_kid = trace._string_id.get("wait", -1)
    grid = [[(".", 0.0)] * width for _ in range(n_cores)]
    for s_tid, s_core, s_start, s_end, s_kid in zip(
        trace._s_tid, trace._s_core, trace._s_start, trace._s_end, trace._s_kind
    ):
        lo, hi = max(s_start, start), min(s_end, end)
        if hi <= lo:
            continue
        c0 = int((lo - start) / cell)
        c1 = min(width - 1, int((hi - start - 1) / cell))
        ch = letters[s_tid]
        if s_kid == wait_kid:
            ch = ch.lower()
        for c in range(c0, c1 + 1):
            seg_cover = min(hi, start + (c + 1) * cell) - max(lo, start + c * cell)
            if seg_cover > grid[s_core][c][1]:
                grid[s_core][c] = (ch, seg_cover)
    lines = [
        f"core {cid:2d} " + "".join(ch for ch, _ in row)
        for cid, row in enumerate(grid)
    ]
    return "\n".join(lines)
