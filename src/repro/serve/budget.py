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
what turns the pool into backpressure upstream. Parked waiters are
served oldest first (paper §2: a freed processor goes to a block that
waits for it): a release wakes only the head of the queue, a head that
finds nothing free keeps its place, and an arrival still takes a free
slot at once.
"""

from __future__ import annotations

import threading
import time
from collections import deque
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
        self._lock = threading.Lock()
        #: one wake-up per parked waiter, oldest first
        self._waiters: deque[threading.Condition] = deque()
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

    @property
    def waiting(self) -> int:
        """Waiters parked in :meth:`reserve_blocking` right now."""
        return len(self._waiters)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "slots": self.slots,
                "in_use": self._in_use,
                "high_watermark": self.high_watermark,
            }

    # -- accounting (all under self._lock) ---------------------------------
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

        An arrival takes a free slot at once; otherwise it parks at the
        back of the queue, and a release wakes only the queue's head."""
        if want < 1:
            raise ServeError(f"need want >= 1, got {want}")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            res = self._try_reserve(tenant, want)
            if res is not None or timeout == 0:
                return res
            wake = threading.Condition(self._lock)
            self._waiters.append(wake)
            try:
                while res is None and (deadline is None or time.monotonic() < deadline):
                    wake.wait(None if deadline is None else deadline - time.monotonic())
                    if self._waiters[0] is wake:  # a head an arrival beat keeps its place
                        res = self._try_reserve(tenant, want)
            finally:
                self._waiters.remove(wake)
                self._wake_head()
            return res

    def _wake_head(self) -> None:
        if self._waiters and self._in_use < self.slots:
            self._waiters[0].notify()

    def _release(self, res: Reservation, n: int | None = None) -> None:
        with self._lock:
            if res._released:
                return
            give = res.granted if n is None else min(n, res.granted)
            if give <= 0:
                return
            res.granted -= give
            self._give_back(give)
            if res.granted <= 0:
                res._released = True
            self._wake_head()
