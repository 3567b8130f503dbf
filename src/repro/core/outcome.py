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

    @property
    def network_retries(self) -> int:
        """Link-level retries the rfork/lease protocol spent on this block."""
        total = 0
        rfork = self.extras.get("rfork")
        if rfork:
            total += int(rfork.get("retries", 0))
        remote = self.extras.get("remote")
        if remote and remote.get("ship"):
            total += int(remote["ship"].get("retries", 0))
        return total

    @property
    def lease_events(self) -> list:
        """The remote-world lease's event log (granted/suspect/declare-dead/…)."""
        return list(self.extras.get("lease", ()))

    @property
    def relanded(self) -> bool:
        """True when a dead/unreachable remote world was re-run locally."""
        return bool(self.extras.get("relanded"))

    @property
    def remote_fallback(self) -> str | None:
        """"local" when an rfork exhausted its retries and ran here, else None."""
        rfork = self.extras.get("rfork")
        return rfork.get("fallback") if rfork else None

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
