"""Event loop for the multicore scheduling simulator.

Design notes
------------
Time is an integer number of **microseconds**.  Integer time makes every
run bit-reproducible across platforms: there is no floating-point event
reordering, and equal-time events fire in insertion (FIFO) order thanks
to a monotonically increasing sequence number used as a tiebreaker.

The engine is deliberately minimal -- a heap of ``(time, seq, event)``
triples -- because the simulator above it (cores, balancers, barrier
timeouts) cancels and reschedules events constantly.  Cancellation is
lazy: a cancelled event stays in the heap but is skipped when popped,
which keeps ``cancel`` O(1).  The engine tracks how many cancelled
entries the heap holds, so :attr:`Engine.pending` is O(1), and when
cancelled entries outnumber live ones the heap is compacted in place
(amortized O(1) per cancel) so pathological cancel/reschedule churn
cannot grow the heap without bound.

The engine knows nothing about cores or tasks; higher layers register
plain callbacks.  This keeps the kernel independently testable and lets
the same loop drive the analytical micro-models in the test suite.

Dispatch fast path
------------------
``run`` and ``step`` share one dispatch body (:meth:`Engine._drain`) so
the two can never drift apart (the backwards-time and ``max_events``
guards historically existed only in ``run``).  The shared loop binds
hot globals and attributes to locals and keeps the per-event observer
hook to a single truthiness test on a local alias of
:attr:`Engine.observers`, which makes the common no-observer case a
specialized tight loop while still honouring observers installed
before the run (the list is aliased, not copied, so in-place
``append``/``remove`` are seen immediately).

The compiled ``native`` backend (:mod:`repro.sim.backends.native`)
overrides only ``_drain`` for ``run``: its C twin pops the same
``_heap`` list with the same heap algorithm, so both backends share
every other method and can interleave freely.
"""

from __future__ import annotations

import gc
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

__all__ = ["Engine", "Event", "SimulationError"]

#: heap sizes below this are never compacted -- rebuilding a tiny heap
#: costs more bookkeeping than the cancelled entries it would reclaim.
_COMPACT_MIN_HEAP = 64


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state.

    Examples: scheduling an event in the past, or running an engine
    past its configured hard event limit (which almost always indicates
    a livelock in a scheduler model, e.g. two balancers migrating the
    same task back and forth every microsecond).
    """


def _bad_time(kind: str, value: object, now: int) -> str:
    """Why ``schedule`` (``kind`` "delay") or ``schedule_at`` ("time")
    refused ``value``."""
    if type(value) is not int:
        return (
            f"cannot schedule with {kind}={value!r} ({type(value).__name__}); "
            "engine time is integer microseconds"
        )
    if kind == "delay":
        return f"cannot schedule {value}us in the past (now={now})"
    return f"cannot schedule at t={value} before now={now}"


class Event:
    """Handle for a scheduled callback.

    Instances are created by :meth:`Engine.schedule`; user code only
    ever calls :meth:`cancel` or inspects :attr:`time`.  ``engine`` and
    ``in_heap`` are engine-internal bookkeeping for the O(1) live-event
    counter; events forged without them (``engine=None``) still behave,
    they are just excluded from the cancelled-entry accounting.

    ``payload`` rides along with the event and is passed to the
    callback at dispatch (``callback(payload)``); a ``None`` payload
    means a zero-argument callback.  The dispatch core uses this to
    schedule a long-lived bound method plus a generation integer
    instead of allocating a fresh closure per dispatched event: the
    ``native`` backend's C chain recognises the core event by the
    identity of ``CoreSim._on_core_event``, so a closure in its place
    would silently send every dispatch down the generic call path.
    """

    __slots__ = (
        "time", "seq", "callback", "cancelled", "label", "engine", "in_heap",
        "payload",
    )

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., Any],
        label: str,
        engine: Optional["Engine"] = None,
        payload: Optional[Any] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.label = label
        self.engine = engine
        # engine-created events are pushed immediately after construction
        self.in_heap = engine is not None
        self.payload = payload

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent, O(1) amortized."""
        if self.cancelled:
            return
        self.cancelled = True
        eng = self.engine
        if eng is not None and self.in_heap:
            eng._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        # Kept for forged-event tests and direct comparisons; the engine
        # heap itself holds (time, seq, event) tuples so heap ordering
        # uses C-level tuple comparison and never calls back into this.
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} {self.label!r} {state}>"


class Engine:
    """A deterministic discrete-event loop with integer-microsecond time.

    Parameters
    ----------
    max_events:
        Safety valve: :meth:`run` raises :class:`SimulationError` after
        this many dispatched events.  The default is high enough for the
        largest paper experiment (~tens of millions) while still
        catching livelocks in seconds.

    Examples
    --------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(10, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [10]

    Every field is a slot: the native backend's drain loop reads and
    writes them at fixed offsets, so a new field must be added to
    ``__slots__``.
    """

    __slots__ = (
        "now", "_heap", "_seq", "_dispatched", "_cancelled", "max_events",
        "_running", "_stop_requested", "observers",
    )

    def __init__(self, max_events: int = 200_000_000) -> None:
        self.now: int = 0
        #: (time, seq, event) triples: seq is unique, so heap comparisons
        #: resolve on the int prefix at C speed without touching Event
        self._heap: list[tuple[int, int, Event]] = []
        self._seq: int = 0
        self._dispatched: int = 0
        #: cancelled events still sitting in the heap (lazy deletion)
        self._cancelled: int = 0
        self.max_events = max_events
        self._running = False
        self._stop_requested = False
        #: dispatch observers, called with each live event just before
        #: its callback runs (and before the clock advances).  This is
        #: the instrumentation hook the runtime invariant checker
        #: (:mod:`repro.analysis.invariants`) installs; observers must
        #: not mutate engine state.
        self.observers: list[Callable[[Event], Any]] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[..., Any],
        label: str = "",
        payload: Optional[Any] = None,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` microseconds from now.

        ``delay`` must be a non-negative ``int`` (a float or a bool
        raises :class:`SimulationError` rather than being truncated); a
        zero delay runs the callback after all events already queued for
        the current time.  When ``payload`` is not None the callback is
        invoked as ``callback(payload)``, which lets hot call sites
        schedule a long-lived bound method instead of a fresh closure
        per event.  Returns the :class:`Event` handle, which may be
        cancelled.
        """
        if type(delay) is not int or delay < 0:
            raise SimulationError(_bad_time("delay", delay, self.now))
        # inlined schedule_at: delay >= 0 already guarantees time >= now,
        # and this is the hottest allocation site in the simulator.
        ev = Event(self.now + delay, self._seq, callback, label, self, payload)
        self._seq += 1
        heappush(self._heap, (ev.time, ev.seq, ev))
        return ev

    def schedule_at(
        self,
        time: int,
        callback: Callable[..., Any],
        label: str = "",
        payload: Optional[Any] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``, an ``int``
        no earlier than now."""
        if type(time) is not int or time < self.now:
            raise SimulationError(_bad_time("time", time, self.now))
        ev = Event(time, self._seq, callback, label, self, payload)
        self._seq += 1
        heappush(self._heap, (ev.time, ev.seq, ev))
        return ev

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> None:
        """Dispatch events in time order, with the cycle collector off.

        Stops when the queue is exhausted or, if ``until`` is given,
        when the next event would fire strictly after ``until`` (the
        clock is then advanced to ``until``).

        The drain loop allocates heavily (an Event and a heap entry per
        dispatch) but drops its garbage promptly via refcounting;
        Python's cycle collector only adds periodic sweep pauses on
        top.  Disabling it for the duration of the run is semantically
        invisible -- nothing in the simulator relies on collection
        timing -- and it is restored even when the run raises.
        """
        if self._running:
            raise SimulationError("Engine.run is not reentrant")
        self._running = True
        self._stop_requested = False
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._drain(until, single=False)
            if until is not None and self.now < until and not self._stop_requested:
                self.now = until
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()

    def step(self) -> bool:
        """Dispatch a single event.  Returns False if the queue is empty.

        ``step`` shares the dispatch body with :meth:`run` (same
        backwards-time guard, ``max_events`` guard and observer
        notification); unlike ``run`` it ignores :meth:`stop` requests,
        which only scope over the run they interrupt.
        """
        return self._drain(None, single=True)

    def _drain(self, until: Optional[int], single: bool) -> bool:
        """The one dispatch loop behind both :meth:`run` and :meth:`step`.

        Returns True iff at least one event was dispatched (the value
        :meth:`step` reports).  Hot attributes are bound to locals; the
        observer list is aliased so in-place mutation is still honoured
        while the empty-observer test stays a single local truthiness
        check.
        """
        heap = self._heap
        pop = heappop
        limit = self.max_events
        observers = self.observers  # alias, not copy: live hook list
        dispatched_any = False
        while heap and (single or not self._stop_requested):
            t, _, ev = heap[0]
            if ev.cancelled:
                pop(heap)
                ev.in_heap = False
                if ev.engine is not None:
                    self._cancelled -= 1
                continue
            if until is not None and t > until:
                break
            pop(heap)
            ev.in_heap = False
            if observers:
                for obs in observers:
                    obs(ev)
            if t < self.now:  # pragma: no cover - defensive
                raise SimulationError("event queue time went backwards")
            self.now = t
            d = self._dispatched + 1
            self._dispatched = d
            if d > limit:
                raise SimulationError(
                    f"event limit exceeded ({limit}); "
                    f"likely livelock near t={self.now} (last: {ev.label!r})"
                )
            payload = ev.payload
            if payload is not None:
                ev.callback(payload)
            else:
                ev.callback()
            if single:
                return True
            dispatched_any = True
        return dispatched_any

    def stop(self) -> None:
        """Request the current :meth:`run` to return after this event.

        Used by the system layer to end a run when the applications
        under study have finished, even though background tasks (a
        cpu-hog, balancer timers) would generate events forever.
        """
        self._stop_requested = True

    # ------------------------------------------------------------------
    # cancelled-entry accounting
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Count a cancellation; compact when the heap is mostly dead.

        Called by :meth:`Event.cancel` for events the engine scheduled
        (and that are still queued).  Compaction rewrites the heap in
        place, so a ``run`` loop holding a local alias keeps working.
        """
        self._cancelled += 1
        heap = self._heap
        if self._cancelled * 2 > len(heap) and len(heap) >= _COMPACT_MIN_HEAP:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place."""
        heap = self._heap
        live = [entry for entry in heap if not entry[2].cancelled]
        for entry in heap:
            if entry[2].cancelled:
                entry[2].in_heap = False
        heap[:] = live
        heapify(heap)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1).

        Maintained as ``len(heap) - cancelled_in_heap``; events forged
        directly into the heap without an engine backref (test-only) are
        counted as live until popped.
        """
        return len(self._heap) - self._cancelled

    @property
    def dispatched(self) -> int:
        """Total number of events dispatched so far."""
        return self._dispatched

    def fingerprint(self) -> dict[str, int]:
        """Canonical end-of-run engine state, for determinism checks.

        Two runs of the same scenario that made identical scheduling
        decisions end with the same clock, the same number of dispatched
        events and the same number of scheduled events; any divergence
        anywhere in a run perturbs at least one of the three.  The
        schedule sanitizer's differential determinism checker folds this
        dict into its canonical run digest, so the engine itself --
        not just the recorded trace -- is part of the bit-identical
        claim.
        """
        return {
            "now": self.now,
            "dispatched": self._dispatched,
            "scheduled": self._seq,
        }

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            ev = heappop(heap)[2]
            ev.in_heap = False
            if ev.engine is not None:
                self._cancelled -= 1
        return heap[0][0] if heap else None
