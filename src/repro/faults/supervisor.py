"""Supervised alternative blocks: retry spares, watchdogs, degradation.

The paper's recovery-block story (§4.1) assumes the runtime itself
survives misbehaving alternates. :class:`Supervisor` supplies that
survival layer on top of :func:`repro.core.worlds.run_alternatives`:

- **retry spares** — when a whole block fails (every alternative
  crashed, hung, or was rejected), the failed alternatives are
  respawned as a new wave of standby spares, staggered via the same
  ``start_delay`` mechanism the paper uses for its §4.1 stagger
  frontier, with per-attempt backoff and a bounded attempt count;
- **watchdog escalation** — a :class:`~repro.core.policy.WatchdogPolicy`
  handed to the fork backend turns hangs into SIGTERM → grace → SIGKILL
  escalations instead of block-wide timeouts;
- **graceful degradation** — when spawning worlds *itself* fails
  (:class:`~repro.errors.SpawnError`, real or injected), the supervisor
  walks the block down the ladder in :data:`DEGRADES_TO` and records
  every hop in ``BlockOutcome.extras["degraded"]``.

The ladder is local only. Remote execution is a shard host behind
:class:`~repro.cluster.ClusterRouter`, whose failure detector and
takeover re-land a dead host's work; a supervisor rung that reached one
would be a second router.

The supervisor is fault-plan aware only in that it threads the plan and
an attempt counter through to the backends; the attempt number is part
of every fault key, so retries genuinely re-roll the dice — a block
facing a 30% per-child crash rate converges on a winner after a couple
of waves instead of failing forever.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Sequence

from repro.core.alternative import Alternative
from repro.core.backend import normalize_alternatives
from repro.core.outcome import BlockOutcome
from repro.core.policy import EliminationPolicy, WatchdogPolicy
from repro.core.worlds import run_alternatives
from repro.errors import SpawnError, WorldsError
from repro.obs import or_null

#: The degradation ladder, one row per rung: where work lands when the
#: rung it was on cannot spawn. Strongest isolation first. Coroutine
#: alternatives cannot cross a ``fork`` boundary (the child cannot report
#: awaitables back through a pipe), so a failed async spawn degrades
#: straight to threads; a rung with no row (``sequential``, ``sim``)
#: never degrades.
DEGRADES_TO = {
    "fork": "thread",
    "async": "thread",
    "thread": "sequential",
}


def _chain_from(backend: str) -> tuple[str, ...]:
    """The ladder from ``backend`` down, following :data:`DEGRADES_TO`."""
    chain = [backend]
    while chain[-1] in DEGRADES_TO:
        chain.append(DEGRADES_TO[chain[-1]])
    return tuple(chain)


DEFAULT_FALLBACK = _chain_from("fork")
ASYNC_FALLBACK = _chain_from("async")


class Supervisor:
    """Runs alternative blocks that survive their own failures.

    Parameters
    ----------
    max_retries:
        Extra waves of spares after the initial attempt (0 disables
        retry). Total attempts are ``1 + max_retries``.
    backoff_s:
        Parent-side pause before retry wave *n* is ``backoff_s * n`` —
        linear backoff, enough to let transient pressure (fork storms,
        page-cache churn) subside without the exponential cliffs that
        would dwarf the block's own runtime.
    spare_stagger_s:
        Within a retry wave, spare *i* starts ``i * spare_stagger_s``
        late (the §4.1 stagger frontier applied to respawns).
    watchdog:
        Hang escalation policy for the fork backend; None disables it.
    fault_plan:
        Deterministic fault schedule threaded through to the backends.
    block_id:
        Fault-key namespace for this supervisor's blocks; bump it when
        running many supervised blocks under one plan.
    journal:
        A :class:`~repro.journal.CommitJournal`; when set, every block
        win is sealed as a durable ``block`` transaction, and a
        restarted supervisor finding its ``block_id`` already applied
        replays the recorded winner instead of re-running the block —
        exactly-once across process incarnations.
    obs:
        An :class:`~repro.obs.Observability`; threaded through to every
        backend attempt, and the supervisor's own decisions (retry
        waves, degradation hops) are recorded as metrics and annotation
        events.
    """

    def __init__(
        self,
        max_retries: int = 2,
        backoff_s: float = 0.02,
        spare_stagger_s: float = 0.0,
        watchdog: WatchdogPolicy | None = None,
        fault_plan=None,
        block_id: int = 0,
        journal=None,
        obs=None,
    ) -> None:
        if max_retries < 0:
            raise WorldsError(f"max_retries must be non-negative, got {max_retries}")
        if backoff_s < 0 or spare_stagger_s < 0:
            raise WorldsError("backoff_s and spare_stagger_s must be non-negative")
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.spare_stagger_s = spare_stagger_s
        self.watchdog = watchdog
        self.fault_plan = fault_plan
        self.block_id = block_id
        self.journal = journal
        self.obs = or_null(obs)
        if fault_plan is not None:
            self.obs.watch_fault_plan(fault_plan)

    def _count(self, name: str, help: str = "", **labels: str) -> None:
        self.obs.registry.counter(
            name, help, labelnames=tuple(sorted(labels))
        ).inc(**labels)

    # ------------------------------------------------------------------
    _chain_from = staticmethod(_chain_from)

    def _run_degradable(
        self,
        chain: list[str],
        degraded: list[dict],
        alternatives: list[Alternative],
        attempt: int,
        **kwargs: Any,
    ) -> BlockOutcome:
        """Run one attempt, walking the fallback chain on SpawnError.

        ``chain`` is mutated in place: once a backend proves unable to
        spawn, later attempts start from the surviving suffix instead of
        re-failing through the dead rungs.
        """
        while True:
            backend = chain[0]
            try:
                return run_alternatives(
                    alternatives,
                    backend=backend,
                    fault_plan=self.fault_plan,
                    block_id=self.block_id,
                    attempt=attempt,
                    watchdog=self.watchdog if backend == "fork" else None,
                    journal=self.journal,
                    **kwargs,
                )
            except SpawnError as exc:
                if len(chain) == 1:
                    raise
                degraded.append(
                    {"backend": backend, "attempt": attempt, "error": str(exc)}
                )
                self._count(
                    "mw_degradations_total", "Backend fallback hops",
                    src=backend, dst=chain[1],
                )
                self.obs.tracer.instant(
                    f"degrade:{backend}->{chain[1]}", cat="supervisor",
                    track="supervisor", attempt=attempt, error=str(exc),
                )
                chain.pop(0)

    # ------------------------------------------------------------------
    def run(
        self,
        alternatives: Sequence[Any],
        initial: dict[str, Any] | None = None,
        timeout: float | None = None,
        elimination: EliminationPolicy = EliminationPolicy.ASYNCHRONOUS,
        backend: str = "fork",
        **kwargs: Any,
    ) -> BlockOutcome:
        """Run a supervised block; returns the (annotated) final outcome.

        The returned outcome is the last attempt's, with indexes mapped
        back to the caller's alternative positions, total wall time in
        ``elapsed_s``, and supervision records in ``extras``
        (``supervisor``, ``degraded``, ``backend``).

        With a ``journal``, a win already applied for this ``block_id``
        (by a previous incarnation that crashed after sealing) is
        replayed without running anything — the outcome carries
        ``extras["journal_recovered"]``.
        """
        if self.journal is not None:
            from repro.journal import replay_block_win

            replayed = replay_block_win(self.journal, self.block_id)
            if replayed is not None:
                self._count(
                    "mw_supervised_blocks_total", "Supervised block outcomes",
                    result="journal-replayed",
                )
                return replayed
        kwargs.setdefault("obs", self.obs)
        alts = normalize_alternatives(alternatives)
        chain = list(self._chain_from(backend))
        degraded: list[dict] = []
        history: list[dict] = []

        t0 = time.perf_counter()
        # (original_index, alternative) pairs still in play this wave
        active: list[tuple[int, Alternative]] = list(enumerate(alts))
        outcome: BlockOutcome | None = None

        for attempt in range(1 + self.max_retries):
            if attempt > 0 and self.backoff_s > 0:
                time.sleep(self.backoff_s * attempt)
            remaining = None
            if timeout is not None:
                remaining = timeout - (time.perf_counter() - t0)
                if remaining <= 0:
                    break
            wave = [
                dataclasses.replace(
                    alt, start_delay=alt.start_delay + i * self.spare_stagger_s
                )
                if attempt > 0 and self.spare_stagger_s > 0
                else alt
                for i, (_, alt) in enumerate(active)
            ]
            outcome = self._run_degradable(
                chain, degraded, wave, attempt,
                initial=initial, timeout=remaining, elimination=elimination,
                **kwargs,
            )
            # map wave-local indexes back to the caller's positions
            outcome.remap_indexes([orig for orig, _ in active])
            history.append({
                "attempt": attempt,
                "backend": chain[0],
                "winner": outcome.winner.name if outcome.winner else None,
                "losers": [(l.name, l.error) for l in outcome.losers],
                "elapsed_s": outcome.elapsed_s,
            })
            if outcome.winner is not None:
                break
            retryable = {loser.index for loser in outcome.losers}
            active = [(orig, alt) for orig, alt in active if orig in retryable] or active

        if outcome is None:  # timeout budget consumed before the first wave
            outcome = BlockOutcome(winner=None, elapsed_s=0.0, timed_out=True)
        outcome.elapsed_s = time.perf_counter() - t0
        outcome.extras["supervisor"] = {
            "attempts": len(history) or 1,
            "max_retries": self.max_retries,
            "history": history,
        }
        outcome.extras["backend"] = chain[0]
        if degraded:
            outcome.extras["degraded"] = degraded
        if outcome.winner is not None:
            result = "won"
        elif outcome.timed_out:
            result = "timeout"
        else:
            result = "failed"
        self._count(
            "mw_supervised_blocks_total", "Supervised block outcomes",
            result=result,
        )
        if len(history) > 1:
            self.obs.registry.counter(
                "mw_retry_waves_total", "Retry waves beyond the first attempt",
            ).inc(float(len(history) - 1))
        return outcome


def run_supervised(
    alternatives: Sequence[Any],
    initial: dict[str, Any] | None = None,
    timeout: float | None = None,
    backend: str = "fork",
    supervisor: Supervisor | None = None,
    **kwargs: Any,
) -> BlockOutcome:
    """Convenience wrapper: run one block under a (default) supervisor."""
    sup = supervisor or Supervisor()
    return sup.run(alternatives, initial=initial, timeout=timeout, backend=backend, **kwargs)
