"""The world-budget governor: one global pool of world slots.

Speculation is only profitable while spare capacity exists (paper §2,
Figs. 3–4): every world beyond the first buys latency with wasted work,
and once concurrent requests contend for the same processors the waste
stops paying. :class:`WorldBudget` is the arbiter of that tradeoff at
service scale. It holds a fixed pool of *world slots* — one slot is the
right to run one speculative world — and grants them as
:class:`Reservation` objects under one rule:

- **elastic grants** — a reservation asks for ``want`` slots but only
  *needs* one: the non-speculative world, which is the work. The
  governor grants as much of ``want`` as is free; every slot above the
  first is *speculative* and reclaimable;
- **preemption** — when no slot is free, a request takes exactly one
  speculative slot from the lowest-priority holder below it (ties: the
  holder with the most speculative slots, then the earliest). A first
  slot is never taken — committed work is never cancelled, exactly the
  paper's rule that only not-yet-committed worlds are disposable — and
  a tenant holding every slot never preempts itself. A victim sees the
  loss in its ``granted`` and stops launching the worlds it lost.

All accounting is thread-safe; :meth:`WorldBudget.reserve_blocking`
parks a worker until capacity frees up (or a deadline passes), which is
what turns the pool into backpressure upstream.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.errors import ServeError
from repro.obs import NULL_OBS, or_null


class Reservation:
    """A tenant's grant of world slots (the first firm, the rest speculative).

    ``granted`` is the current holding — it shrinks when speculative
    slots are preempted or partially released; ``preempted`` counts the
    slots lost to preemption. Release is idempotent.
    """

    __slots__ = ("tenant", "priority", "granted", "preempted", "_budget", "_released")

    def __init__(
        self, budget: "WorldBudget", tenant: str, granted: int, priority: int
    ) -> None:
        self._budget = budget
        self.tenant = tenant
        self.granted = granted
        self.priority = priority
        self.preempted = 0
        self._released = False

    @property
    def speculative(self) -> int:
        """Slots above the first — the preemptible share."""
        return max(0, self.granted - 1)

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
            f"prio={self.priority})"
        )


class WorldBudget:
    """A fixed pool of world slots with priority preemption.

    Parameters
    ----------
    slots:
        Total concurrent worlds the machine affords (the paper's spare
        processors ρ, made explicit).
    obs:
        Optional :class:`~repro.obs.Observability` (the null plane when
        None). The governor keeps
        ``mw_serve_slots_in_use`` (gauge), ``mw_serve_slots_hwm``
        (high-watermark gauge — the acceptance check that the budget was
        never exceeded) and ``mw_serve_preemptions_total{tenant}``
        (slots clawed back, labelled by victim) live.
    """

    def __init__(self, slots: int, obs=None) -> None:
        if slots < 1:
            raise ServeError(f"budget needs at least one slot, got {slots}")
        self.slots = slots
        self._cond = threading.Condition()
        self._in_use = 0
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
    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def free(self) -> int:
        return self.slots - self._in_use

    def snapshot(self) -> dict:
        with self._cond:
            return {
                "slots": self.slots,
                "in_use": self._in_use,
                "high_watermark": self.high_watermark,
                "preempted_slots": self.preempted_slots,
            }

    # -- accounting (all under self._cond) ---------------------------------
    def _take(self, n: int) -> None:
        self._in_use += n
        if self._in_use > self.slots:  # invariant, not a runtime state
            raise ServeError(
                f"budget overcommitted: {self._in_use} > {self.slots} slots"
            )
        if self._in_use > self.high_watermark:
            self.high_watermark = self._in_use
            self._hwm_g.set(float(self.high_watermark))
        self._in_use_g.set(float(self._in_use))

    def _give_back(self, n: int) -> None:
        self._in_use -= n
        self._in_use_g.set(float(self._in_use))

    def _preempt_one(self, tenant: str, priority: int) -> bool:
        """Take one speculative slot from the lowest-priority holder below
        ``priority`` (ties: most speculative, then earliest); False when
        there is none, or when ``tenant`` holds every slot."""
        if all(r.tenant == tenant for r in self._holders):
            return False
        candidates = [
            r for r in self._holders if r.priority < priority and r.speculative > 0
        ]
        if not candidates:
            return False
        victim = min(candidates, key=lambda r: (r.priority, -r.speculative))
        victim.granted -= 1
        victim.preempted += 1
        self._give_back(1)
        self.preempted_slots += 1
        self._preempt_c.inc(1.0, tenant=victim.tenant)
        return True

    def _try_reserve(self, tenant: str, want: int, priority: int) -> Reservation | None:
        grant = min(want, self.free)
        if grant < 1:
            if not self._preempt_one(tenant, priority):
                return None
            grant = 1
        res = Reservation(self, tenant, grant, priority)
        self._take(grant)
        self._holders.append(res)
        return res

    # -- the public grant API ----------------------------------------------
    def reserve(self, tenant: str, want: int, priority: int = 0) -> Reservation | None:
        """Grant between one and ``want`` slots now (preempting one
        speculative slot of a lower priority if none is free), or
        return ``None``."""
        return self.reserve_blocking(tenant, want, priority, timeout=0)

    def reserve_blocking(
        self,
        tenant: str,
        want: int,
        priority: int = 0,
        timeout: float | None = None,
    ) -> Reservation | None:
        """Like :meth:`reserve`, but wait up to ``timeout`` for capacity.

        A release wakes one waiter per slot it freed, not every waiter."""
        if want < 1:
            raise ServeError(f"need want >= 1, got {want}")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while (res := self._try_reserve(tenant, want, priority)) is None:
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        break
            if self._in_use < self.slots:
                # a release wakes one waiter per slot it freed, and a
                # wait that timed out may have spent one of those
                # wake-ups: hand it on while a slot is still free
                self._cond.notify()
            return res

    def _release(self, res: Reservation, n: int | None = None) -> None:
        with self._cond:
            if res._released:
                return
            give = res.granted if n is None else min(n, res.granted)
            if give <= 0:
                return
            res.granted -= give
            self._give_back(give)
            if res.granted <= 0:
                res._released = True
                try:
                    self._holders.remove(res)
                except ValueError:  # pragma: no cover - defensive
                    pass
            self._cond.notify(give)
