"""Results of executing an alternative block."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.analysis.overhead import OverheadBreakdown


class _Failure:
    """Singleton marking the failure alternative's selection."""

    _instance: "_Failure | None" = None

    def __new__(cls) -> "_Failure":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FAILURE"

    def __bool__(self) -> bool:
        return False


#: Returned as ``BlockOutcome.value`` when every alternative failed.
FAILURE = _Failure()

#: The error a runner writes on a loser the block itself stopped: a
#: sibling won, or the block ran out of time. A loser carrying any other
#: error failed on its own.
ELIMINATED = "eliminated"
TIMEOUT_KILLED = "timeout-killed"
STOPPED_BY_BLOCK = (ELIMINATED, TIMEOUT_KILLED)


@dataclass(slots=True)
class AlternativeResult:
    """What one alternative produced (winner or postmortem record)."""

    index: int
    name: str
    value: Any = None
    succeeded: bool = False
    guard_failed: bool = False
    error: str | None = None
    elapsed_s: float = 0.0


@dataclass(slots=True)
class BlockOutcome:
    """The overall result of one alternative block execution.

    ``winner`` is the selected alternative (or ``None`` on failure);
    ``value`` is its result or :data:`FAILURE`. ``elapsed_s`` is wall
    clock for real backends and virtual time for the simulator.
    """

    winner: AlternativeResult | None
    elapsed_s: float
    overhead: OverheadBreakdown = field(default_factory=OverheadBreakdown)
    timed_out: bool = False
    losers: list[AlternativeResult] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.winner is None

    @property
    def value(self) -> Any:
        if self.winner is None:
            return FAILURE
        return self.winner.value

    @property
    def degraded(self) -> bool:
        """True when a supervisor fell back to a weaker backend."""
        return bool(self.extras.get("degraded"))

    @property
    def attempts(self) -> int:
        """How many supervised attempts this outcome took (1 if unsupervised)."""
        sup = self.extras.get("supervisor")
        return int(sup["attempts"]) if sup else 1

    @property
    def watchdog_events(self) -> list:
        """Escalation events (SIGTERM/SIGKILL) the fork watchdog recorded."""
        return list(self.extras.get("watchdog", ()))

    def remap_indexes(self, positions: Sequence[int]) -> None:
        """Report in the caller's positions a block that ran a chosen
        subset of its alternatives: ``positions[i]`` is where the run's
        alternative ``i`` sits in the caller's list."""
        for result in (self.winner, *self.losers):
            if result is not None and 0 <= result.index < len(positions):
                result.index = positions[result.index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        who = self.winner.name if self.winner else "FAILURE"
        return f"BlockOutcome(winner={who}, elapsed={self.elapsed_s:.6f}s)"
