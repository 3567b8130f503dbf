"""The world-budget governor: a global slot pool with per-tenant quotas.

Speculation is only profitable while spare capacity exists (paper §2,
Figs. 3–4): every world beyond the first buys latency with wasted work,
and once concurrent requests contend for the same processors the waste
stops paying. :class:`WorldBudget` is the arbiter of that tradeoff at
service scale. It holds a fixed pool of *world slots* — one slot is the
right to run one speculative world — and grants them as
:class:`Reservation` objects:

- **quotas** — each tenant may hold at most ``quota(tenant)`` slots at
  once, so one greedy tenant cannot starve the rest of the pool;
- **elastic grants** — a reservation asks for ``want`` slots but only
  *needs* ``min_slots`` (normally 1: the non-speculative world). The
  governor grants as much of ``want`` as fits; everything above
  ``min_slots`` is *speculative* and reclaimable;
- **preemption** — when a higher-priority request cannot get even its
  ``min_slots``, the governor claws back speculative slots from the
  lowest-priority holders (never their minimum — committed work is
  never cancelled, exactly the paper's rule that only not-yet-committed
  worlds are disposable). Victims learn through their ``on_preempt``
  callback and are expected to stop launching the worlds they lost.

All accounting is thread-safe; :meth:`WorldBudget.reserve_blocking`
parks a worker until capacity frees up (or a deadline passes), which is
what turns the pool into backpressure upstream.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.errors import QuotaExceeded, ServeError
from repro.obs import NULL_OBS, or_null


class Reservation:
    """A tenant's grant of world slots (``min_slots`` firm, rest speculative).

    ``granted`` is the current holding — it shrinks when speculative
    slots are preempted or partially released; ``preempted`` counts the
    slots lost to preemption. Release is idempotent.
    """

    __slots__ = (
        "tenant", "priority", "min_slots", "granted", "preempted",
        "on_preempt", "_budget", "_released",
    )

    def __init__(
        self,
        budget: "WorldBudget",
        tenant: str,
        granted: int,
        min_slots: int,
        priority: int,
        on_preempt: Callable[[int], None] | None,
    ) -> None:
        self._budget = budget
        self.tenant = tenant
        self.granted = granted
        self.min_slots = min_slots
        self.priority = priority
        self.on_preempt = on_preempt
        self.preempted = 0
        self._released = False

    @property
    def speculative(self) -> int:
        """Slots above the firm minimum — the preemptible share."""
        return max(0, self.granted - self.min_slots)

    def release(self, n: int | None = None) -> None:
        """Return ``n`` slots (default: all remaining) to the pool."""
        self._budget._release(self, n)

    def __enter__(self) -> "Reservation":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Reservation(tenant={self.tenant!r}, granted={self.granted}, "
            f"min={self.min_slots}, prio={self.priority})"
        )


class WorldBudget:
    """A fixed pool of world slots with per-tenant quotas and preemption.

    Parameters
    ----------
    slots:
        Total concurrent worlds the machine affords (the paper's spare
        processors ρ, made explicit).
    default_quota:
        Per-tenant concurrent-slot cap; ``None`` means a tenant may use
        the whole pool (fairness then rests on the admission queue).
    obs:
        Optional :class:`~repro.obs.Observability` (the null plane when
        None). The governor keeps
        ``mw_serve_slots_in_use`` (gauge), ``mw_serve_slots_hwm``
        (high-watermark gauge — the acceptance check that the budget was
        never exceeded) and ``mw_serve_preemptions_total{tenant}``
        (slots clawed back, labelled by victim) live.
    """

    def __init__(self, slots: int, default_quota: int | None = None, obs=None) -> None:
        if slots < 1:
            raise ServeError(f"budget needs at least one slot, got {slots}")
        if default_quota is not None and default_quota < 1:
            raise ServeError(f"default_quota must be positive, got {default_quota}")
        self.slots = slots
        self.default_quota = default_quota
        self._cond = threading.Condition()
        self._in_use = 0
        self._quotas: dict[str, int] = {}
        self._tenant_use: dict[str, int] = {}
        self._holders: list[Reservation] = []
        self.high_watermark = 0
        self.preempted_slots = 0
        self.obs = NULL_OBS
        self.bind_obs(obs)

    def bind_obs(self, obs) -> None:
        """Record into ``obs`` from now on, unless already on a real plane
        (also called by the service)."""
        if self.obs is not NULL_OBS:
            return
        self.obs = obs = or_null(obs)
        self._in_use_g = obs.registry.gauge(
            "mw_serve_slots_in_use", "World slots currently granted"
        )
        self._hwm_g = obs.registry.gauge(
            "mw_serve_slots_hwm", "High watermark of granted world slots"
        )
        self._preempt_c = obs.registry.counter(
            "mw_serve_preemptions_total",
            "Speculative slots preempted, by victim tenant",
            labelnames=("tenant",),
        )
        self._in_use_g.set(float(self._in_use))
        self._hwm_g.set(float(self.high_watermark))

    # -- introspection -----------------------------------------------------
    def quota(self, tenant: str) -> int:
        explicit = self._quotas.get(tenant, self.default_quota)
        return self.slots if explicit is None else explicit

    def set_quota(self, tenant: str, max_slots: int) -> None:
        if max_slots < 1:
            raise ServeError(f"quota must be positive, got {max_slots}")
        with self._cond:
            self._quotas[tenant] = max_slots
            self._cond.notify_all()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def free(self) -> int:
        return self.slots - self._in_use

    def tenant_in_use(self, tenant: str) -> int:
        return self._tenant_use.get(tenant, 0)

    @property
    def load(self) -> float:
        """Fraction of the pool currently granted, in ``[0, 1]``."""
        return self._in_use / self.slots

    def snapshot(self) -> dict:
        with self._cond:
            return {
                "slots": self.slots,
                "in_use": self._in_use,
                "high_watermark": self.high_watermark,
                "preempted_slots": self.preempted_slots,
                "tenants": dict(self._tenant_use),
            }

    # -- accounting (all under self._cond) ---------------------------------
    def _take(self, tenant: str, n: int) -> None:
        self._in_use += n
        if self._in_use > self.slots:  # invariant, not a runtime state
            raise ServeError(
                f"budget overcommitted: {self._in_use} > {self.slots} slots"
            )
        self._tenant_use[tenant] = self._tenant_use.get(tenant, 0) + n
        if self._in_use > self.high_watermark:
            self.high_watermark = self._in_use
            self._hwm_g.set(float(self.high_watermark))
        self._in_use_g.set(float(self._in_use))

    def _give_back(self, tenant: str, n: int) -> None:
        self._in_use -= n
        remaining = self._tenant_use.get(tenant, 0) - n
        if remaining > 0:
            self._tenant_use[tenant] = remaining
        else:
            self._tenant_use.pop(tenant, None)
        self._in_use_g.set(float(self._in_use))

    def _preempt_for(
        self, needed: int, priority: int
    ) -> list[tuple[Reservation, int]]:
        """Claw back up to ``needed`` speculative slots from lower priority.

        Victims are taken lowest-priority-first; within a priority, the
        holder with the most speculative slots pays first (it is wasting
        the most). Returns ``(victim, slots_taken)`` pairs; accounting is
        already updated, callbacks are the caller's job (outside the
        lock).
        """
        victims: list[tuple[Reservation, int]] = []
        candidates = sorted(
            (r for r in self._holders if r.priority < priority and r.speculative > 0),
            key=lambda r: (r.priority, -r.speculative),
        )
        for holder in candidates:
            if needed <= 0:
                break
            take = min(holder.speculative, needed)
            holder.granted -= take
            holder.preempted += take
            self._give_back(holder.tenant, take)
            self.preempted_slots += take
            self._preempt_c.inc(float(take), tenant=holder.tenant)
            victims.append((holder, take))
            needed -= take
        return victims

    def _try_reserve(
        self,
        tenant: str,
        want: int,
        min_slots: int,
        priority: int,
        on_preempt: Callable[[int], None] | None,
        allow_preempt: bool,
    ) -> tuple[Reservation | None, list[tuple[Reservation, int]]]:
        quota = self.quota(tenant)
        if min_slots > quota:
            raise QuotaExceeded(
                f"tenant {tenant!r} needs {min_slots} slots but its quota is {quota}"
            )
        headroom = min(self.free, quota - self.tenant_in_use(tenant))
        grant = min(want, headroom)
        victims: list[tuple[Reservation, int]] = []
        if grant < min_slots:
            if not allow_preempt:
                return None, []
            reclaimable = sum(
                r.speculative for r in self._holders if r.priority < priority
            )
            shortfall = min_slots - max(grant, 0)
            if self.free + reclaimable < min_slots or (
                quota - self.tenant_in_use(tenant) < min_slots
            ):
                return None, []
            victims = self._preempt_for(shortfall, priority)
            grant = min_slots
        res = Reservation(self, tenant, grant, min_slots, priority, on_preempt)
        self._take(tenant, grant)
        self._holders.append(res)
        return res, victims

    @staticmethod
    def _notify_victims(victims: list[tuple[Reservation, int]]) -> None:
        for victim, taken in victims:
            if victim.on_preempt is not None:
                victim.on_preempt(taken)

    # -- the public grant API ----------------------------------------------
    def reserve(
        self,
        tenant: str,
        want: int,
        min_slots: int = 1,
        priority: int = 0,
        on_preempt: Callable[[int], None] | None = None,
        preempt: bool = True,
    ) -> Reservation | None:
        """Grant up to ``want`` slots now, or return ``None``.

        The grant is at least ``min_slots`` (preempting lower-priority
        speculative slots if necessary and allowed) or nothing at all —
        a request is never left holding fewer worlds than it needs to
        run sequentially.
        """
        if want < 1 or min_slots < 1 or min_slots > want:
            raise ServeError(
                f"need 1 <= min_slots <= want, got min_slots={min_slots} want={want}"
            )
        with self._cond:
            res, victims = self._try_reserve(
                tenant, want, min_slots, priority, on_preempt, preempt
            )
        self._notify_victims(victims)
        return res

    def reserve_blocking(
        self,
        tenant: str,
        want: int,
        min_slots: int = 1,
        priority: int = 0,
        on_preempt: Callable[[int], None] | None = None,
        preempt: bool = True,
        timeout: float | None = None,
    ) -> Reservation | None:
        """Like :meth:`reserve`, but wait up to ``timeout`` for capacity."""
        if want < 1 or min_slots < 1 or min_slots > want:
            raise ServeError(
                f"need 1 <= min_slots <= want, got min_slots={min_slots} want={want}"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                res, victims = self._try_reserve(
                    tenant, want, min_slots, priority, on_preempt, preempt
                )
                if res is not None:
                    break
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        return None
        self._notify_victims(victims)
        return res

    def _release(self, res: Reservation, n: int | None = None) -> None:
        with self._cond:
            if res._released:
                return
            give = res.granted if n is None else min(n, res.granted)
            if give <= 0:
                return
            res.granted -= give
            self._give_back(res.tenant, give)
            if res.granted <= 0:
                res._released = True
                try:
                    self._holders.remove(res)
                except ValueError:  # pragma: no cover - defensive
                    pass
            self._cond.notify_all()
