"""Host-speed calibration: a fixed kernel timed between operations.

The benchmark runs on shared hosts whose speed moves by tens of percent
from second to second and between runs, and sometimes by about 2x for
minutes.  So an untraced run interleaves the work it times with samples
of :func:`kernel`, a fixed piece of work that uses none of the
program's code (the stdlib only, the same on every commit): one sample
after every few tens of milliseconds of work.  Times are then reported
host-normalised::

    reported = measured * REF_S / mean(kernel samples beside the work)

which is the time the work would have taken on a host where the kernel
takes :data:`REF_S` seconds.  A change to the program moves the
measured times and not the kernel, so it moves the reported times by
the same share; a change in host speed moves both, and cancels.

On a 2-vCPU host in a noisy hour, 20 repeats of one fixed figure-cold
grid spread 0.18 (quartile distance over median) measured and 0.05 so
normalised; sampled only between whole passes instead of between
cells, the kernel did not track the host (correlation 0.36 against
0.94).  The kernel's work is JSON both ways, a digest and gzip.  Over
seven minutes in which the host's speed moved by 1.5x, figure-cold
times moved as this kernel's to the power 0.78 and figure-warm times
to the power 1.10.  Other kernels were further from 1 on one of the
two: a heap-and-dict event loop 0.69 and 1.01, the same loop plus
one serialization 0.65 and 0.99, an arithmetic loop 0.85 and 1.25,
random reads over 13 MB of objects 0.55 and 0.86.  So the cancelling
is not exact: across a 2x change of host level a workload with power
0.78 still reads about 15% apart.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
import zlib

#: the time, in seconds, that reported times assume the kernel takes:
#: a fixed scale, near the kernel's time on the tuning host at its
#: faster level (it took 8-9 ms at the slower one)
REF_S = 0.005

_now = time.perf_counter

_DOC = [{"tid": i, "core": i % 16, "start_us": i * 97, "end_us": i * 97 + 53,
         "label": f"core{i % 16}"} for i in range(400)]


def _serialize() -> int:
    """The store's shape of work: JSON both ways, a digest, gzip."""
    text = json.dumps(_DOC, sort_keys=True)
    back = json.loads(text)
    raw = text.encode()
    digest = hashlib.sha256(raw).hexdigest()
    packed = zlib.compress(raw, 6)
    return len(back) + len(digest) + len(packed)


def kernel() -> float:
    """One calibration sample: seconds to do the fixed work once.

    The collector is off while it runs, so that the sample does not
    pay for collecting the program's objects: a program that kept more
    of them would otherwise slow the kernel too and hide its own cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = _now()
        for _ in range(4):
            _serialize()
        return _now() - t
    finally:
        if enabled:
            gc.enable()


def factor(samples: list[float]) -> float:
    """``REF_S / mean(samples)``: above 1 on a host faster than the
    reference, below 1 on a slower one.  The mean, because the work
    timed beside the samples is a sum too."""
    return REF_S / statistics.fmean(samples)
