"""Overhead decomposition (paper sections 3.1 and 3.3).

τ(overhead) consists of:

1. **setup** — creating the "Multiple Worlds", one per alternative
   (fork/page-map copies, memory copying for remote children);
2. **runtime** — copying state that is updated (COW faults) while the
   alternatives execute;
3. **completion** — committing the winner's state changes and deleting its
   slower siblings.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class OverheadBreakdown:
    """Seconds of overhead attributed to each of the paper's three buckets."""

    setup_s: float = 0.0
    runtime_s: float = 0.0
    completion_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.setup_s + self.runtime_s + self.completion_s

    def __add__(self, other: "OverheadBreakdown") -> "OverheadBreakdown":
        return OverheadBreakdown(
            self.setup_s + other.setup_s,
            self.runtime_s + other.runtime_s,
            self.completion_s + other.completion_s,
        )

    def dominated_by(self) -> str:
        """Which bucket dominates (the paper observed copying dominates)."""
        buckets = {
            "setup": self.setup_s,
            "runtime": self.runtime_s,
            "completion": self.completion_s,
        }
        return max(buckets, key=buckets.__getitem__)

    def as_dict(self) -> dict[str, float]:
        return {
            "setup_s": self.setup_s,
            "runtime_s": self.runtime_s,
            "completion_s": self.completion_s,
            "total_s": self.total_s,
        }
