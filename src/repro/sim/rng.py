"""Seeded, stream-separated randomness for the simulator.

Every stochastic decision in the simulator -- balance-interval jitter
(Section 5.1 of the paper), taskstats measurement noise (Section 5.2),
fork-placement tie breaking, make-job durations -- draws from a *named
stream*.  Streams are independent child generators derived from the run
seed and the stream name, so

* two runs with the same seed are bit-identical, and
* adding a draw to one component does not shift the sequence seen by
  any other component (which would otherwise make A/B comparisons of
  balancers noisy for spurious reasons).
"""

from __future__ import annotations

import hashlib
import random  # sim-lint: ignore[SIM002]
from typing import Sequence, TypeVar

__all__ = ["SimRng"]

T = TypeVar("T")


class SimRng:
    """A root seed plus a dictionary of named child streams.

    Examples
    --------
    >>> rng = SimRng(seed=42)
    >>> a = rng.stream("balancer.jitter")
    >>> b = rng.stream("placement")
    >>> a is rng.stream("balancer.jitter")
    True
    >>> a is b
    False
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the child generator ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            gen = random.Random(int.from_bytes(digest[:8], "big"))  # sim-lint: ignore[SIM002]
            self._streams[name] = gen
        return gen

    # Convenience wrappers used throughout the simulator ---------------
    def jitter_us(self, name: str, max_us: int) -> int:
        """Uniform integer in ``[0, max_us]`` from stream ``name``."""
        if max_us <= 0:
            return 0
        return self.stream(name).randint(0, int(max_us))

    def gauss(self, name: str, mu: float, sigma: float) -> float:
        """Gaussian draw from stream ``name`` (sigma<=0 returns mu)."""
        if sigma <= 0:
            return mu
        return self.stream(name).gauss(mu, sigma)

    def choice(self, name: str, seq: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self.stream(name).choice(list(seq))

    def uniform(self, name: str, lo: float, hi: float) -> float:
        """Uniform float in ``[lo, hi)``."""
        return self.stream(name).uniform(lo, hi)

    def shuffled(self, name: str, seq: Sequence[T]) -> list[T]:
        """Return a shuffled copy of ``seq``."""
        out = list(seq)
        self.stream(name).shuffle(out)
        return out

    def randint(self, name: str, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]``."""
        return self.stream(name).randint(lo, hi)
