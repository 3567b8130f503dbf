"""Bounded retries with exponential backoff and deterministic jitter.

Every distributed consumer (the remote shard client here; rfork, the
network store and migration in the benchmarks' 1989 network model) faces
the same loop: try a link operation, classify the failure, back off, try
again, give up after a bounded number of attempts. :func:`call_with_retries`
is that loop, once.

Jitter is deterministic: it derives from the CRC of the operation's
idempotency token and the attempt number, not from a shared RNG, so two
runs of the same seeded scenario back off identically (the property the
determinism tests assert) while distinct operations still decorrelate.

Given a simulated link, backoff consumes *link* time via its ``wait`` —
that is what eventually walks a retry out of a partition window — and is
reported in the stats so callers can account "added latency due to
unreliability" separately from nominal transfer time.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import RetriesExhausted, TransferError


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try: bounded attempts, exponential backoff, jitter.

    ``deadline_s``, when set, caps the loop's *total* elapsed time: no
    retry is attempted once ``elapsed + next_pause`` would cross it, even
    with attempts left — whichever bound (attempts or deadline) trips
    first wins. Elapsed time is measured on the same clock the backoff is
    charged to: real ``time.monotonic`` without a link, the link's
    virtual clock with one (so simulated scenarios stay deterministic).
    """

    max_retries: int = 4
    base_backoff_s: float = 0.01
    multiplier: float = 2.0
    max_backoff_s: float = 1.0
    jitter: float = 0.5  # extra backoff fraction in [0, jitter]
    deadline_s: float | None = None  # total-time cap across all attempts

    @property
    def max_attempts(self) -> int:
        return 1 + self.max_retries

    def backoff_s(self, attempt: int, token: str = "") -> float:
        """Backoff before retry ``attempt`` (1-based), deterministic in token."""
        base = min(
            self.base_backoff_s * self.multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        frac = (zlib.crc32(f"{token}:{attempt}".encode()) % 1000) / 999.0
        return base * (1.0 + self.jitter * frac)


@dataclass
class RetryStats:
    """What one retried operation cost beyond the happy path."""

    attempts: int = 0
    retries: int = 0
    backoff_s: float = 0.0
    faults: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "backoff_s": self.backoff_s,
            "faults": list(self.faults),
        }


def call_with_retries(
    op: Callable[[int], Any],
    *,
    policy: RetryPolicy,
    token: str = "",
    link=None,
    retry_on: tuple[type[BaseException], ...] = (TransferError,),
) -> tuple[Any, RetryStats]:
    """Run ``op(attempt)`` until it succeeds or the policy is exhausted.

    ``op`` receives the 0-based attempt number (it is part of every link
    fault key, so each attempt genuinely re-rolls the dice). Failures in
    ``retry_on`` trigger backoff — charged to ``link`` when one is given
    — and a retry; anything else propagates immediately. After the last
    attempt fails — or once the policy's ``deadline_s`` total-time cap
    would be crossed by the next backoff — raises
    :class:`~repro.errors.RetriesExhausted` chained to the final failure.
    """
    stats = RetryStats()
    last: BaseException | None = None
    why = "attempts"
    started = time.monotonic()
    for attempt in range(policy.max_attempts):
        stats.attempts = attempt + 1
        try:
            return op(attempt), stats
        except retry_on as exc:
            last = exc
            stats.faults.append(type(exc).__name__)
            if attempt + 1 >= policy.max_attempts:
                break
            pause = policy.backoff_s(attempt + 1, token)
            if policy.deadline_s is not None:
                # measure on the clock the backoff is charged to: the
                # link's virtual clock when simulating, wall time when
                # real — so deadline-vs-attempts races are deterministic
                # under a SimulatedLink
                elapsed = (
                    stats.backoff_s if link is not None
                    else time.monotonic() - started
                )
                if elapsed + pause > policy.deadline_s:
                    why = f"deadline ({policy.deadline_s}s)"
                    break
            stats.retries += 1
            stats.backoff_s += pause
            if link is not None:
                link.wait(pause)
            else:
                # no simulated link to charge: this is a real transport
                # (e.g. the shard RPC client), so the backoff must
                # actually pass before the resend hits the wire
                time.sleep(pause)
    exhausted = RetriesExhausted(
        f"{token or 'operation'} failed after {stats.attempts} attempts "
        f"({why} exhausted): {last}",
        attempts=stats.attempts,
    )
    exhausted.stats = stats  # callers recover the full retry accounting
    raise exhausted from last
