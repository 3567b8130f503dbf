"""Deterministic, snapshottable randomness for simulated processes.

World-splitting (paper section 2.4.2) clones a running process. The
simulation kernel implements cloning by deterministic replay, which requires
that every source of nondeterminism a process consumes either flows through
the kernel (messages, alt results) or can be snapshotted. Random numbers are
the one in-process source, so simulated programs must draw randomness from a
:class:`ReplayableRNG` whose exact state can be captured and restored.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import numpy as np


class ReplayableRNG:
    """A numpy ``Generator`` wrapper whose state can be saved and restored.

    The wrapper exposes the handful of draws the example workloads need;
    anything else is reachable through :attr:`generator`, but only the
    wrapped methods are guaranteed replay-safe. numpy is imported when the
    first generator is built, so importing :mod:`repro.util` does not
    load it.
    """

    def __init__(self, seed: int | None = 0) -> None:
        import numpy as np

        self._seed = seed
        self._gen = np.random.default_rng(seed)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (advanced use)."""
        return self._gen

    # -- draws -----------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._gen.uniform(low, high))

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def exponential(self, scale: float = 1.0) -> float:
        return float(self._gen.exponential(scale))

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        return float(self._gen.normal(loc, scale))

    def angle(self) -> float:
        """A uniformly random angle in ``[0, 2*pi)`` (rootfinder starts)."""
        return float(self._gen.uniform(0.0, 2.0 * math.pi))

    def shuffle(self, items: list[Any]) -> None:
        self._gen.shuffle(items)

    # -- snapshot / restore ----------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Capture the complete generator state (cheap, copyable dict)."""
        return {"seed": self._seed, "state": self._gen.bit_generator.state}

    @classmethod
    def from_snapshot(cls, snap: dict[str, Any]) -> "ReplayableRNG":
        """Rebuild an RNG positioned exactly at a snapshot."""
        rng = cls(snap["seed"])
        rng._gen.bit_generator.state = snap["state"]
        return rng

    def clone(self) -> "ReplayableRNG":
        """An independent copy positioned at the same state."""
        return ReplayableRNG.from_snapshot(self.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ReplayableRNG(seed={self._seed})"
