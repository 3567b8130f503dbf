"""Per-alternative win-rate and latency statistics.

The adaptive policy's raw material: for every alternative name the
service has ever run, how often does it win, and how long does it take?
Both are tracked as exponentially-weighted moving averages so the
policy adapts when a workload shifts (an alternative that used to win
can fall out of favour within ``~1/ALPHA`` observations).

With an :class:`~repro.obs.Observability` bound (the null plane
otherwise), every observation also lands in the metrics registry —
``mw_serve_alt_attempts_total{alt}``, ``mw_serve_alt_wins_total{alt}``
and ``mw_serve_alt_latency_seconds{alt}`` (histogram) — so the numbers
the policy is acting on are the same numbers an operator sees in a
scrape.
"""

from __future__ import annotations

import collections
import threading
from dataclasses import dataclass

from repro.obs import NULL_OBS, or_null

#: Weight of the newest observation in both EWMAs.
ALPHA = 0.2
#: The optimistic win prior of a never-seen alternative: it must be
#: tried before it can be ranked (a pessimistic prior would lock in the
#: incumbent forever).
PRIOR_WIN = 0.5
#: Most alternative names tracked at once. A tenant that names its
#: alternatives per request would otherwise grow the table one record
#: per name forever; past the cap the least recently observed name is
#: dropped and ranks by :data:`PRIOR_WIN` again, exactly like a name never
#: seen.
_MAX_TRACKED = 4096


@dataclass(slots=True)
class AltRecord:
    """One alternative's running statistics."""

    attempts: int = 0
    wins: int = 0
    win_ewma: float = 0.0
    latency_ewma_s: float = 0.0


class AlternativeStats:
    """Thread-safe EWMA statistics keyed by alternative name, weighted
    by :data:`ALPHA`, with :data:`PRIOR_WIN` for the never seen."""

    def __init__(self, obs=None) -> None:
        self._lock = threading.Lock()
        # least recently observed first
        self._records: "collections.OrderedDict[str, AltRecord]" = (
            collections.OrderedDict()
        )
        self.obs = NULL_OBS
        self.bind_obs(obs)

    def bind_obs(self, obs) -> None:
        """Record into ``obs`` from now on, unless already on a real plane."""
        if self.obs is not NULL_OBS:
            return
        self.obs = obs = or_null(obs)
        self._attempts_c = obs.registry.counter(
            "mw_serve_alt_attempts_total", "Alternative executions",
            labelnames=("alt",),
        )
        self._wins_c = obs.registry.counter(
            "mw_serve_alt_wins_total", "Alternative wins", labelnames=("alt",),
        )
        self._latency_h = obs.registry.histogram(
            "mw_serve_alt_latency_seconds", "Per-alternative latency",
            labelnames=("alt",),
        )

    # -- recording ---------------------------------------------------------
    def observe(self, name: str, won: bool, latency_s: float) -> None:
        """Record one finished execution of alternative ``name``."""
        with self._lock:
            rec = self._records.get(name)
            if rec is None:
                rec = self._records[name] = AltRecord(
                    win_ewma=PRIOR_WIN, latency_ewma_s=max(latency_s, 0.0)
                )
                while len(self._records) > _MAX_TRACKED:
                    self._records.popitem(last=False)
            else:
                self._records.move_to_end(name)
            rec.attempts += 1
            rec.wins += int(won)
            rec.win_ewma += ALPHA * ((1.0 if won else 0.0) - rec.win_ewma)
            if latency_s >= 0.0:
                rec.latency_ewma_s += ALPHA * (latency_s - rec.latency_ewma_s)
        self._attempts_c.inc(alt=name)
        if won:
            self._wins_c.inc(alt=name)
        if latency_s >= 0.0:
            self._latency_h.observe(latency_s, alt=name)

    def observe_outcome(
        self,
        outcome,
        names: list[str] | None = None,
        launched: list[str] | None = None,
    ) -> None:
        """Feed a whole :class:`~repro.core.outcome.BlockOutcome`.

        ``names`` maps result indexes back to the caller's alternative
        names when the outcome only ran a subset (the policy's K < N).
        ``launched`` lists every alternative that was actually spawned:
        worlds abandoned by asynchronous elimination never report back
        as losers, so any launched-but-unreported name is charged a
        loss here — otherwise a perpetual loser keeps its optimistic
        unseen prior and outranks the alternative that beats it.
        """
        def name_of(result) -> str:
            if names is not None and 0 <= result.index < len(names):
                return names[result.index]
            return result.name

        seen = set()
        if outcome.winner is not None:
            winner_name = name_of(outcome.winner)
            seen.add(winner_name)
            self.observe(winner_name, True, outcome.winner.elapsed_s)
        for loser in outcome.losers:
            loser_name = name_of(loser)
            seen.add(loser_name)
            self.observe(loser_name, False, loser.elapsed_s)
        # an abandoned world ran at least as long as the winner took
        floor = outcome.winner.elapsed_s if outcome.winner is not None else -1.0
        for name in launched or ():
            if name not in seen:
                self.observe(name, False, floor)

    # -- reading -----------------------------------------------------------
    def record(self, name: str) -> AltRecord | None:
        with self._lock:
            return self._records.get(name)

    def win_ewma(self, name: str) -> float:
        rec = self.record(name)
        return rec.win_ewma if rec is not None else PRIOR_WIN

    def latency_ewma(self, name: str) -> float:
        rec = self.record(name)
        return rec.latency_ewma_s if rec is not None else 0.0

    def score(self, name: str, latency_floor_s: float = 1e-6) -> float:
        """Expected usefulness per second: win EWMA over latency EWMA.

        Unseen alternatives score ``PRIOR_WIN / latency_floor_s`` — high
        enough to get tried, which is deliberate (explore first, then
        exploit).
        """
        rec = self.record(name)
        if rec is None:
            return PRIOR_WIN / latency_floor_s
        return rec.win_ewma / max(rec.latency_ewma_s, latency_floor_s)

    def known(self) -> list[str]:
        with self._lock:
            return sorted(self._records)

    def snapshot(self) -> dict[str, dict]:
        with self._lock:
            return {
                name: {
                    "attempts": r.attempts,
                    "wins": r.wins,
                    "win_ewma": r.win_ewma,
                    "latency_ewma_s": r.latency_ewma_s,
                }
                for name, r in self._records.items()
            }
