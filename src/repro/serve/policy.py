"""The adaptive speculation policy: how many worlds, which, and when.

The paper's Figs. 3–4 plot performance improvement π against the
overhead ratio R_o and spare-capacity ρ: speculation pays while worlds
are cheap and processors idle, and *costs* once either stops being
true. A static service would have to pick one point on that curve;
:class:`AdaptiveSpeculationPolicy` walks it at runtime, per request:

- **K (how many)** — start from the slots the budget actually granted,
  then shrink with measured pool load: at ``saturation`` the policy
  stops speculating entirely (K=1). The service passes *others'* load,
  ``(in_use − granted) / slots`` — at most 0.75 on 4 slots — so on a pool
  under 10 slots the default 0.9 never fires. Win-rate statistics shrink
  K further — once one alternative wins ``confident_win`` of the time,
  running its siblings is pure waste (ρ has left the profitable region,
  so stop paying R_o).
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
- **backend** — saturated K=1 requests degrade to the ``sequential``
  backend: no worlds, no spawn cost, exactly the paper's degenerate
  standby-spares execution.
- **wide-K (per request class)** — the inverse degradation: a request
  class whose worlds are I/O-bound (``class_max_k``) may speculate
  *past* its budget grant on the near-zero-spawn-cost asyncio backend.
  The paper's profitability frontier R_o → 0 as spawn cost vanishes,
  so for these classes K is bounded by usefulness, not slots; the
  decision carries ``wide=True`` so the service knows the extra worlds
  are unbudgeted freebies rather than a policy outvoting the budget.

The policy is deliberately stateless between calls — all adaptation
lives in the shared :class:`~repro.serve.stats.AlternativeStats`, which
both the decision and the observation side update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ServeError
from repro.serve.stats import AlternativeStats


@dataclass
class SpeculationDecision:
    """One request's execution shape, as decided by the policy.

    ``order`` holds indexes into the caller's alternative list, ranked
    best-first and truncated to K; ``staggers`` are the matching start
    delays (``staggers[0]`` is always 0). ``backend`` may downgrade the
    service default under saturation (or upgrade it to ``async`` in
    wide-K mode). ``wide`` marks a K that deliberately exceeds the
    budget grant — the extra worlds are unbudgeted cheap tasks, so the
    service must neither clamp them to the grant nor preemption-gate
    them.
    """

    order: list[int]
    staggers: list[float]
    backend: str | None = None
    reason: str = "adaptive"
    wide: bool = False

    @property
    def k(self) -> int:
        return len(self.order)


@dataclass
class FixedSpeculationPolicy:
    """The naive baseline: always spawn every alternative at once.

    What every ``run_alternatives`` caller does today — and the control
    arm the serve benchmark compares the adaptive policy against.
    """

    backend: str | None = None

    def decide(
        self, names, granted: int, load: float = 0.0, request_class=None,  # noqa: ARG002
    ) -> SpeculationDecision:
        order = list(range(len(names)))
        return SpeculationDecision(
            order=order, staggers=[0.0] * len(order),
            backend=self.backend, reason="fixed",
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
    saturation:
        Pool-load fraction at and above which the policy stops
        speculating (K=1, sequential backend).
    confident_win:
        Win EWMA above which the favourite runs alone even on an idle
        pool (its siblings would almost surely be wasted work).
    stagger_scale:
        Multiplies the load-scaled stagger unit; 0 disables staggering.
    max_stagger_s:
        Ceiling on the unit stagger (one slow observation must not stall spares).
    max_k:
        Global clamp on K regardless of grant size; None leaves the
        grant as the only global bound.
    class_max_k:
        Per-request-class K cap, overriding ``max_k`` for requests
        carrying that class. A cap *above* the grant is the wide-K
        opt-in: the class's worlds are cheap (I/O-bound coroutines), so
        K may exceed the granted slots — the decision comes back
        ``wide=True`` on the ``wide_backend``. A cap below the grant is
        just a tighter clamp (e.g. CPU-bound classes that should never
        fan out). Classes absent from the map use ``max_k``.
    wide_backend:
        Backend a wide decision runs on (default ``async`` — the only
        substrate whose spawn cost justifies unbudgeted worlds).
    """

    stats: AlternativeStats = field(default_factory=AlternativeStats)
    saturation: float = 0.9
    confident_win: float = 0.9
    stagger_scale: float = 1.0
    max_stagger_s: float = 0.25
    max_k: int | None = None
    class_max_k: dict[str, int] = field(default_factory=dict)
    wide_backend: str = "async"

    def __post_init__(self) -> None:
        if not 0.0 < self.saturation <= 1.0:
            raise ServeError(f"saturation must be in (0, 1], got {self.saturation}")
        if not 0.0 <= self.confident_win <= 1.0:
            raise ServeError(
                f"confident_win must be in [0, 1], got {self.confident_win}"
            )
        if self.max_k is not None and self.max_k < 1:
            raise ServeError(f"max_k must be >= 1, got {self.max_k}")
        for cls, cap in self.class_max_k.items():
            if cap < 1:
                raise ServeError(
                    f"class_max_k[{cls!r}] must be >= 1, got {cap}"
                )

    # -- the decision ------------------------------------------------------
    def decide(
        self,
        names,
        granted: int,
        load: float = 0.0,
        request_class: str | None = None,
    ) -> SpeculationDecision:
        """Shape one request: ``names`` are the alternatives' names (in
        caller order), ``granted`` the slots the budget allotted,
        ``load`` the share of the pool *others* hold, in ``[0, 1]``, and
        ``request_class`` the tenant-declared workload class consulted
        against ``class_max_k``.
        """
        n = len(names)
        if n == 0:
            raise ServeError("cannot decide over zero alternatives")
        ranked = sorted(range(n), key=lambda i: -self.stats.score(names[i]))
        class_cap = self.class_max_k.get(request_class)
        cap = granted
        if class_cap is not None:
            cap = class_cap  # the class knows its worlds' cost better
        elif self.max_k is not None:
            cap = min(cap, self.max_k)
        k = max(1, min(n, cap))
        wide = k > max(1, granted)
        reason = "wide" if wide else "adaptive"
        if load >= self.saturation and k > 1:
            # a saturated machine has no spare cycles for *any* kind of
            # speculation, cheap worlds included
            k, reason, wide = 1, "saturated", False
        favourite = names[ranked[0]]
        fav_rec = self.stats.record(favourite)
        if (
            k > 1
            and fav_rec is not None
            and fav_rec.attempts >= 3
            and fav_rec.win_ewma >= self.confident_win
        ):
            k, reason, wide = 1, "confident", False
        order = ranked[:k]
        # an unseen favourite's latency EWMA is 0: nothing to wait out
        unit = self.stagger_scale * load * self.stats.latency_ewma(favourite)
        unit = min(max(unit, 0.0), self.max_stagger_s)
        staggers = [i * unit for i in range(k)]
        backend = None
        if reason == "saturated":
            backend = "sequential"
        elif wide:
            backend = self.wide_backend
        return SpeculationDecision(
            order=order, staggers=staggers, backend=backend, reason=reason,
            wide=wide,
        )

    # -- the feedback loop -------------------------------------------------
    def observe(self, outcome, names=None, launched=None) -> None:
        """Feed a finished block back into the statistics."""
        self.stats.observe_outcome(outcome, names, launched=launched)
