"""The world-budget governor: one global pool of world slots.

Speculation is only profitable while spare capacity exists (paper §2,
Figs. 3–4): every world beyond the first buys latency with wasted work,
and once concurrent requests contend for the same processors the waste
stops paying. :class:`WorldBudget` is the arbiter of that tradeoff at
service scale. It holds a fixed pool of *world slots* — one slot is the
right to run one world — and grants them as :class:`Reservation`
objects under one rule: a reservation asks for ``want`` slots but only
*needs* one, the world that is the work, so the governor grants
``min(want, free)`` slots, at least one; with none free the asker
waits. Only the holder gives a grant back, by its own ``release``.

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
    """A tenant's grant of world slots.

    ``granted`` is the current holding; it shrinks only when the holder
    releases part of it. Release is idempotent.
    """

    __slots__ = ("tenant", "granted", "_budget", "_released")

    def __init__(self, budget: "WorldBudget", tenant: str, granted: int) -> None:
        self._budget = budget
        self.tenant = tenant
        self.granted = granted
        self._released = False

    def release(self, n: int | None = None) -> None:
        """Return ``n`` slots (default: all remaining) to the pool."""
        self._budget._release(self, n)

    def __enter__(self) -> "Reservation":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Reservation(tenant={self.tenant!r}, granted={self.granted})"


class WorldBudget:
    """A fixed pool of world slots.

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
        never exceeded) live.
    """

    def __init__(self, slots: int, obs=None) -> None:
        if slots < 1:
            raise ServeError(f"budget needs at least one slot, got {slots}")
        self.slots = slots
        self._cond = threading.Condition()
        self._in_use = 0
        self.high_watermark = 0
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

    def _try_reserve(self, tenant: str, want: int) -> Reservation | None:
        grant = min(want, self.free)
        if grant < 1:
            return None
        self._take(grant)
        return Reservation(self, tenant, grant)

    # -- the public grant API ----------------------------------------------
    def reserve(self, tenant: str, want: int) -> Reservation | None:
        """Grant between one and ``want`` slots now, or return ``None``
        when none is free."""
        return self.reserve_blocking(tenant, want, timeout=0)

    def reserve_blocking(
        self, tenant: str, want: int, timeout: float | None = None
    ) -> Reservation | None:
        """Like :meth:`reserve`, but wait up to ``timeout`` for capacity.

        A release wakes one waiter per slot it freed, not every waiter."""
        if want < 1:
            raise ServeError(f"need want >= 1, got {want}")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while (res := self._try_reserve(tenant, want)) is None:
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
            self._cond.notify(give)
