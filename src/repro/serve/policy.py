"""The adaptive speculation policy: how many worlds, which, and when.

The paper's Figs. 3–4 plot performance improvement π against the
overhead ratio R_o and spare-capacity ρ: speculation pays while worlds
are cheap and processors idle, and *costs* once either stops being
true. A static service would have to pick one point on that curve;
:class:`AdaptiveSpeculationPolicy` walks it at runtime, per request:

- **K (how many)** — the slots the budget actually granted (a busy pool
  grants one: the grant is the spare capacity ρ), shrunk by win-rate
  statistics — once one alternative wins :data:`CONFIDENT_WIN` of the
  time, running its siblings is pure waste (ρ has left the profitable
  region, so stop paying R_o).
- **which** — alternatives ranked by expected usefulness per second
  (win EWMA / latency EWMA, optimistic prior for the unseen), so the
  K worlds that do run are the ones most likely to commit quickly.
- **when (stagger)** — ranked world *i* starts ``i × stagger`` late,
  where the unit stagger is the favourite's *measured* latency scaled by
  load: an idle service launches everything at once (minimum response
  time), a loaded one launches spares only after the favourite has had
  its chance (minimum wasted work) — §4.1's stagger frontier driven by
  live statistics. A favourite never seen has no latency to wait out, so
  its spares launch at once: no granted slot idles on no evidence.

The policy is deliberately stateless between calls — all adaptation
lives in the shared :class:`~repro.serve.stats.AlternativeStats`, which
both the decision and the observation side update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ServeError
from repro.serve.stats import AlternativeStats

#: Win EWMA above which the favourite runs alone even on an idle pool
#: (its siblings would almost surely be wasted work).
CONFIDENT_WIN = 0.9
#: Multiplies the load-scaled stagger unit.
STAGGER_SCALE = 1.0
#: Ceiling on the unit stagger (one slow observation must not stall spares).
MAX_STAGGER_S = 0.25


@dataclass
class SpeculationDecision:
    """One request's execution shape, as decided by the policy.

    ``order`` holds indexes into the caller's alternative list, ranked
    best-first and truncated to K; ``staggers`` are the matching start
    delays (``staggers[0]`` is always 0).
    """

    order: list[int]
    staggers: list[float]
    reason: str = "adaptive"

    @property
    def k(self) -> int:
        return len(self.order)


@dataclass
class FixedSpeculationPolicy:
    """The naive baseline: always spawn every alternative at once.

    What a bare ``run_alternatives`` call does, as a policy: the
    non-adaptive baseline a service can take in place of
    :class:`AdaptiveSpeculationPolicy`.
    """

    def decide(self, names, granted: int, load: float = 0.0) -> SpeculationDecision:  # noqa: ARG002
        order = list(range(len(names)))
        return SpeculationDecision(
            order=order, staggers=[0.0] * len(order), reason="fixed"
        )

    def observe(self, outcome, names=None, launched=None) -> None:  # noqa: ARG002 - baseline learns nothing
        return None


@dataclass
class AdaptiveSpeculationPolicy:
    """Choose K ≤ N alternatives and a stagger schedule from live stats.

    Parameters
    ----------
    stats:
        The shared statistics store (created on demand).

    The thresholds are module constants: :data:`CONFIDENT_WIN`,
    :data:`STAGGER_SCALE`, :data:`MAX_STAGGER_S`.
    """

    stats: AlternativeStats = field(default_factory=AlternativeStats)

    # -- the decision ------------------------------------------------------
    def decide(self, names, granted: int, load: float = 0.0) -> SpeculationDecision:
        """Shape one request: ``names`` are the alternatives' names (in
        caller order), ``granted`` the slots the budget allotted, and
        ``load`` the share of the pool *others* hold, in ``[0, 1]``.
        """
        n = len(names)
        if n == 0:
            raise ServeError("cannot decide over zero alternatives")
        ranked = sorted(range(n), key=lambda i: -self.stats.score(names[i]))
        k = max(1, min(n, granted))
        reason = "adaptive"
        favourite = names[ranked[0]]
        fav_rec = self.stats.record(favourite)
        if (
            k > 1
            and fav_rec is not None
            and fav_rec.attempts >= 3
            and fav_rec.win_ewma >= CONFIDENT_WIN
        ):
            k, reason = 1, "confident"
        order = ranked[:k]
        # an unseen favourite's latency EWMA is 0: nothing to wait out
        unit = STAGGER_SCALE * load * self.stats.latency_ewma(favourite)
        unit = min(max(unit, 0.0), MAX_STAGGER_S)
        staggers = [i * unit for i in range(k)]
        return SpeculationDecision(order=order, staggers=staggers, reason=reason)

    # -- the feedback loop -------------------------------------------------
    def observe(self, outcome, names=None, launched=None) -> None:
        """Feed a finished block back into the statistics."""
        self.stats.observe_outcome(outcome, names, launched=launched)
