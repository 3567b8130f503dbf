"""Execution policies: sibling elimination and timeouts.

Paper section 2.2.1: when an alternative is selected its siblings are
eliminated, either *synchronously* (before execution resumes in the
parent) or *asynchronously* (at some unspecified later time). The paper's
experiments found asynchronous elimination gives better execution-time
performance at the expense of throughput — our benches reproduce that
(about 2× on their measured constants).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class EliminationPolicy(enum.Enum):
    """How losing siblings are killed after a winner synchronizes.

    SYNCHRONOUS waits for the losers to die before the parent resumes,
    so the wait counts in the block's ``elapsed_s``; ASYNCHRONOUS
    resumes the parent first. Each backend kills with what it has. On
    the fork backend both signal the losers as soon as the winner is
    accepted, and both reap every child before the call returns:
    ASYNCHRONOUS reaps after the parent resumes, off the block's books.
    """

    SYNCHRONOUS = "sync"
    ASYNCHRONOUS = "async"

    @property
    def blocks_parent(self) -> bool:
        return self is EliminationPolicy.SYNCHRONOUS


@dataclass(frozen=True)
class WatchdogPolicy:
    """Per-alternative hang escalation for the fork backend.

    A child that has neither reported nor died ``soft_deadline_s``
    seconds after its (stagger-adjusted) start is presumed hung and is
    escalated: SIGTERM first, giving it ``term_grace_s`` seconds to
    clean up or report, then SIGKILL. This replaces the block-level
    "bare SIGKILL on timeout" as the only defence against hangs — a
    well-behaved alternative gets a chance to release resources or ship
    a partial report before it is destroyed.
    """

    soft_deadline_s: float
    term_grace_s: float = 0.2

    def __post_init__(self) -> None:
        if self.soft_deadline_s <= 0:
            raise ValueError(f"soft_deadline_s must be positive, got {self.soft_deadline_s}")
        if self.term_grace_s < 0:
            raise ValueError(f"term_grace_s must be non-negative, got {self.term_grace_s}")

    def deadline_for(self, start_delay: float) -> float:
        """Seconds after block start when this alternative is presumed hung."""
        return start_delay + self.soft_deadline_s


@dataclass(frozen=True)
class TimeoutPolicy:
    """The parent's alt_wait TIMEOUT handling.

    ``timeout_s`` of ``None`` waits indefinitely. ``fail_fast`` selects
    whether timeout raises (:class:`repro.errors.BlockTimeout`) or returns
    a failure outcome.
    """

    timeout_s: float | None = None
    fail_fast: bool = False

    def expired(self, waited_s: float) -> bool:
        return self.timeout_s is not None and waited_s >= self.timeout_s
