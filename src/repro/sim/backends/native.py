"""The native dispatch backend: the heap engine's drain loop compiled to C.

:class:`NativeEngine` is :class:`~repro.sim.engine.Engine` with one
substitution: ``run()``'s drain loop executes inside a small C library
(``_native/engine_core.c``) compiled on first use with the stock ``cc``
toolchain and bound through stdlib :mod:`ctypes`.  Everything else --
the ``(time, seq, event)`` heap, ``schedule``/``cancel``, ``step()``,
compaction, introspection -- is the inherited Python; the C side pops
and pushes the very same ``_heap`` list with a transcription of
:mod:`heapq`, so the two halves can interleave freely.

The C loop additionally intercepts the hot scheduler event
(:meth:`CoreSim._on_core_event` on a CFS run queue with plain
:class:`~repro.sched.cfs.CfsParams`) and runs a C twin of the reference
call chain it starts: C ``double`` arithmetic in the identical
operation order reproduces CPython float results bit for bit, so every
run digest is unchanged -- the golden-digest wall holds this backend to
the heap reference.  Cold paths (tracing, balancers, observers,
blocked/idle transitions, other run-queue or slice policies) call back
into the ordinary Python methods.

Construction raises :class:`~repro.sim.backends.nativebuild
.NativeUnavailableError` when no C compiler is available; the heap
backend remains the reference and the fallback.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.backends.nativebuild import load_native_lib
from repro.sim.engine import Engine

__all__ = ["NativeEngine"]


class NativeEngine(Engine):
    """Heap engine whose ``run()`` drain loop runs in compiled C."""

    def __init__(self, max_events: int = 200_000_000) -> None:
        # compile/load before touching anything else so an unusable
        # toolchain surfaces as NativeUnavailableError at construction,
        # not as a mystery mid-run
        self._lib = load_native_lib()
        super().__init__(max_events=max_events)

    def _drain(self, until: Optional[int], single: bool) -> bool:
        if single:
            # step() is a debugging/inspection path; the Python loop's
            # single-event bookkeeping is not worth duplicating in C
            return super()._drain(until, single)
        rc: int = self._lib.repro_drain(self, until)
        # a set Python error flag raises through PyDLL before we get
        # here, so rc is 0 or 1
        return bool(rc)
