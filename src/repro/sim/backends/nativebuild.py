"""On-demand compilation and ctypes binding for the native engine core.

The native backend ships as C *source* (``_native/engine_core.c``), not
as a prebuilt artifact: the repository stays pure-source, there are no
wheels or build-system dependencies, and the only toolchain requirement
is a stock C compiler.  This module compiles the source on first use
with whatever ``cc`` is on PATH and caches the shared library under a
key derived from the source digest and the interpreter version, so a
process pays the (sub-second) compile exactly once per source change
per machine -- every later construction is a ``dlopen``.

Binding is stdlib :mod:`ctypes` with :class:`ctypes.PyDLL`: the
library speaks the CPython C-API directly, so it must run with the GIL
held, and ``PyDLL`` both keeps the GIL and converts a set Python error
flag into a raised exception after each call.  There is exactly one
boundary crossing per engine run (``repro_drain``) -- the per-call
ctypes overhead (~1 microsecond) would swamp any win if the boundary
sat inside the event loop.

When no C compiler is available the backend is *unavailable*, not
broken: :func:`load_native_lib` raises :class:`NativeUnavailableError`
with an actionable message, ``backend_available("native")`` returns
False, and the pure-Python heap backend remains the reference and the
fallback.  Nothing in this module runs at import time.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional

__all__ = [
    "NativeUnavailableError",
    "load_native_lib",
    "native_available",
    "native_cache_dir",
    "native_stats",
]

#: bumped together with the C side's ``repro_native_abi`` whenever the
#: exported interface changes; a cached artifact with the wrong ABI is
#: discarded and rebuilt rather than trusted
_ABI_VERSION = 3

_SOURCE = Path(__file__).resolve().parent / "_native" / "engine_core.c"

#: compilers probed, in order, when $CC is unset
_COMPILERS = ("cc", "gcc", "clang")

#: process-level cache: source digest -> configured PyDLL
_loaded: dict[str, ctypes.PyDLL] = {}

#: process-level memo of :func:`_source_digest`: the source's
#: ``(st_mtime_ns, st_size)`` -> digest, so an edited source rebuilds
_digests: dict[tuple[int, int], str] = {}


class NativeUnavailableError(RuntimeError):
    """The native backend cannot be used on this machine.

    Raised when no C compiler is found or the one found cannot build
    the engine core.  Callers that can fall back (tests, benches with
    ``--engine`` sweeps) should catch this and skip; the CLI surfaces
    the message as-is, which names the fix.
    """


def _find_compiler() -> Optional[str]:
    env_cc = os.environ.get("CC")
    if env_cc:
        found = shutil.which(env_cc)
        if found:
            return found
    for cand in _COMPILERS:
        found = shutil.which(cand)
        if found:
            return found
    return None


def native_cache_dir() -> Path:
    """Where compiled artifacts live (override: $REPRO_NATIVE_CACHE)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "native"


def _source_digest() -> str:
    """Cache key: C source + interpreter version + ABI revision.

    The interpreter version is folded in because the library is built
    against this interpreter's headers; a pyenv switch must recompile.
    The digest is memoized per process under the source's modification
    time and size, so every engine construction after the first costs a
    ``stat`` instead of reading and hashing the source.
    """
    st = _SOURCE.stat()
    stamp = (st.st_mtime_ns, st.st_size)
    digest = _digests.get(stamp)
    if digest is not None:
        return digest
    h = hashlib.sha256()
    h.update(_SOURCE.read_bytes())
    h.update(f"|py{sys.version_info[0]}.{sys.version_info[1]}".encode())
    h.update(f"|abi{_ABI_VERSION}".encode())
    digest = h.hexdigest()[:16]
    # a pure function of the file the stamp names -- determinism-neutral
    _digests[stamp] = digest  # sim-lint: ignore[FLOW004]
    return digest


def _compile(cc: str, out_path: Path) -> None:
    include_dir = sysconfig.get_paths()["include"]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    # build to a temp name and os.replace so concurrent processes (the
    # sweep worker pool) race benignly: last writer wins, every reader
    # sees a complete artifact
    fd, tmp_name = tempfile.mkstemp(
        suffix=".so", prefix=out_path.stem + ".", dir=str(out_path.parent)
    )
    os.close(fd)
    cmd = [
        cc,
        "-O2",
        "-shared",
        "-fPIC",
        "-fno-strict-aliasing",
        # no fused multiply-adds: every float op must round exactly as
        # the interpreter's does, on every target
        "-ffp-contract=off",
        f"-I{include_dir}",
        str(_SOURCE),
        "-o",
        tmp_name,
        "-lm",
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-8:]
            raise NativeUnavailableError(
                f"C compiler {cc!r} failed to build the native engine core "
                f"(exit {proc.returncode}):\n" + "\n".join(tail)
            )
        os.replace(tmp_name, out_path)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)


def _bind(path: Path) -> ctypes.PyDLL:
    # PyDLL: the library calls the CPython C-API, so the GIL stays held
    # and a set error flag raises after each call
    lib = ctypes.PyDLL(str(path))
    lib.repro_native_abi.restype = ctypes.c_longlong
    lib.repro_native_abi.argtypes = []
    lib.repro_native_init.restype = ctypes.c_longlong
    lib.repro_native_init.argtypes = [ctypes.py_object]
    lib.repro_drain.restype = ctypes.c_longlong
    lib.repro_drain.argtypes = [ctypes.py_object, ctypes.py_object]
    lib.repro_native_stat.restype = ctypes.c_longlong
    lib.repro_native_stat.argtypes = [ctypes.c_longlong]
    lib.repro_native_slots.restype = ctypes.py_object
    lib.repro_native_slots.argtypes = []
    return lib


def _support_dict() -> dict:
    # imported here, not at module top: repro.sched and repro.system
    # must not be hard import dependencies of the backends package
    # (repro.system imports it)
    from repro.sched.cfs import CfsParams
    from repro.sched.core import _WORK_EPS, CoreSim, CoreStats
    from repro.sched.runqueue import (
        _COMPACT_FACTOR,
        _COMPACT_MIN,
        CfsRunQueue,
        _entry_counter,
    )
    from repro.sched.task import NICE_0_WEIGHT, Task, TaskState, WaitMode
    from repro.sim.engine import Engine, Event, SimulationError
    from repro.system import System

    return {
        "SimulationError": SimulationError,
        "on_core_event": CoreSim._on_core_event,
        # the slotted classes whose member offsets the core resolves
        "Engine": Engine,
        "Event": Event,
        "CoreSim": CoreSim,
        "Task": Task,
        "CfsRunQueue": CfsRunQueue,
        "CoreStats": CoreStats,
        "System": System,
        "CfsParams": CfsParams,
        "RUNNING": TaskState.RUNNING,
        "RUNNABLE": TaskState.RUNNABLE,
        "YIELD": WaitMode.YIELD,
        "entry_counter": _entry_counter,
        "WORK_EPS": float(_WORK_EPS),
        "NICE_0_WEIGHT": float(NICE_0_WEIGHT),
        "COMPACT_FACTOR": _COMPACT_FACTOR,
        "COMPACT_MIN": _COMPACT_MIN,
    }


def load_native_lib() -> ctypes.PyDLL:
    """Compile (once) and bind the native engine core.

    Returns the configured :class:`ctypes.PyDLL`.  Raises
    :class:`NativeUnavailableError` when no working C compiler exists.
    """
    digest = _source_digest()
    lib = _loaded.get(digest)
    if lib is not None:
        return lib
    artifact = native_cache_dir() / f"engine_core-{digest}.so"
    if not artifact.exists():
        cc = _find_compiler()
        if cc is None:
            raise NativeUnavailableError(
                "the 'native' engine backend needs a C compiler ($CC, cc, "
                "gcc or clang on PATH) and none was found; install one or "
                "select --engine heap"
            )
        _compile(cc, artifact)
    try:
        bound = _bind(artifact)
        abi = bound.repro_native_abi()
    except OSError as exc:
        raise NativeUnavailableError(
            f"failed to load native engine core {artifact}: {exc}"
        ) from exc
    if abi != _ABI_VERSION:
        # stale artifact from an older source revision: rebuild once
        artifact.unlink(missing_ok=True)
        cc = _find_compiler()
        if cc is None:
            raise NativeUnavailableError(
                "cached native engine core has a stale ABI and no C "
                "compiler is available to rebuild it"
            )
        _compile(cc, artifact)
        bound = _bind(artifact)
        abi = bound.repro_native_abi()
        if abi != _ABI_VERSION:  # pragma: no cover - defensive
            raise NativeUnavailableError(
                f"native engine core ABI mismatch (got {abi}, "
                f"want {_ABI_VERSION})"
            )
    if bound.repro_native_init(_support_dict()) != 0:  # pragma: no cover
        raise NativeUnavailableError("native engine core failed to initialise")
    # a dlopen-handle memo, not simulation state: handles survive fork,
    # the library is immutable once built, and every worker binding the
    # same digest gets an equivalent handle -- determinism-neutral
    _loaded[digest] = bound  # sim-lint: ignore[FLOW004]
    return bound


def native_stats() -> dict[str, int]:
    """Process-lifetime dispatch counters from the C core.

    ``fused`` counts core events that ran through the compiled twin of
    :meth:`CoreSim._on_core_event`, ``generic`` events dispatched via an
    ordinary Python call, and ``delegated`` core events handed back to
    the Python method (a run queue other than ``CfsRunQueue``, slice
    params other than plain ``CfsParams``, or a core, system, stats or
    current task that is not an instance of its slotted class).  Used
    by tests to prove the fast path is actually exercised rather than
    silently falling back.
    """
    lib = load_native_lib()
    return {
        "fused": int(lib.repro_native_stat(0)),
        "generic": int(lib.repro_native_stat(1)),
        "delegated": int(lib.repro_native_stat(2)),
    }


def native_available() -> bool:
    """True iff the native backend can be constructed on this machine."""
    try:
        load_native_lib()
    except NativeUnavailableError:
        return False
    return True
