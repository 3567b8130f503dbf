"""WorldBudget: grants, accounting invariants, wake-ups."""

import collections
import sys
import threading
import time
import types

import pytest

from repro.errors import ServeError
from repro.obs import Observability
from repro.serve import WorldBudget
from repro.serve import budget as budget_module


def test_reserve_grants_want_when_free():
    b = WorldBudget(8)
    res = b.reserve("a", want=3)
    assert res is not None
    assert res.granted == 3
    assert b.in_use == 3
    assert b.free == 5


def test_elastic_grant_shrinks_to_available():
    b = WorldBudget(4)
    first = b.reserve("a", want=3)
    second = b.reserve("b", want=3)
    assert first.granted == 3
    assert second.granted == 1  # only one slot left: the first is enough


def test_reserve_returns_none_when_no_min_available():
    b = WorldBudget(2)
    b.reserve("a", want=2)
    assert b.reserve("b", want=1) is None  # nothing free: the asker waits


def test_release_returns_slots_and_is_idempotent():
    b = WorldBudget(4)
    res = b.reserve("a", want=4)
    res.release()
    res.release()
    assert b.in_use == 0


def test_partial_release():
    b = WorldBudget(4)
    res = b.reserve("a", want=4)
    res.release(3)
    assert res.granted == 1
    assert b.in_use == 1
    res.release()
    assert b.in_use == 0


def test_context_manager_releases():
    b = WorldBudget(4)
    with b.reserve("a", want=2) as res:
        assert b.in_use == 2
        assert res.granted == 2
    assert b.in_use == 0


def test_bad_arguments():
    with pytest.raises(ServeError):
        WorldBudget(0)
    b = WorldBudget(2)
    with pytest.raises(ServeError):
        b.reserve("a", want=0)


def test_high_watermark_tracks_peak():
    b = WorldBudget(4)
    r1 = b.reserve("a", want=3)
    r1.release()
    b.reserve("b", want=2)
    assert b.high_watermark == 3
    snap = b.snapshot()
    assert snap["high_watermark"] == 3
    assert snap["in_use"] == 2


def test_reserve_blocking_waits_for_release():
    b = WorldBudget(1)
    held = b.reserve("a", want=1)
    got = []

    def waiter():
        got.append(b.reserve_blocking("b", want=1, timeout=5.0))

    t = threading.Thread(target=waiter)
    t.start()
    held.release()
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert got[0] is not None and got[0].granted == 1


def test_reserve_blocking_times_out():
    b = WorldBudget(1)
    b.reserve("a", want=1)
    assert b.reserve_blocking("b", want=1, timeout=0.05) is None


def test_obs_gauges_follow_accounting():
    obs = Observability()
    b = WorldBudget(4, obs=obs)
    res = b.reserve("a", want=3)
    assert obs.registry.get("mw_serve_slots_in_use").value() == 3.0
    assert obs.registry.get("mw_serve_slots_hwm").value() == 3.0
    res.release()
    assert obs.registry.get("mw_serve_slots_in_use").value() == 0.0
    assert obs.registry.get("mw_serve_slots_hwm").value() == 3.0


# -- wake-ups: waiters are served oldest first, a release wakes the head ---


class _CountingBudget(WorldBudget):
    """Records every reservation attempt under the budget's lock: the
    tenants granted, in grant order, and the attempts of parked waiters
    (each tenant's second attempt on) that found nothing free."""

    def __init__(self, slots):
        super().__init__(slots)
        self.tried = collections.Counter()
        self.granted_to = []
        self.misses = 0

    def _try_reserve(self, tenant, want):
        res = super()._try_reserve(tenant, want)
        self.tried[tenant] += 1
        if res is not None:
            self.granted_to.append(tenant)
        elif self.tried[tenant] > 1:
            self.misses += 1
        return res


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.001)


def _park(budget, want, timeout=10.0):
    """Park one thread in ``reserve_blocking`` as tenant ``w<n>``, ``n``
    the waiters parked before it, and wait until it has parked; returns
    (thread, the list its reservation lands in)."""
    got = []
    name = f"w{budget.waiting}"
    parked = budget.waiting + 1
    t = threading.Thread(
        target=lambda: got.append(budget.reserve_blocking(name, want=want, timeout=timeout))
    )
    t.start()
    _wait_until(lambda: budget.waiting == parked)
    return t, got


def release_in_turn(waiters=6, slots=4, want=3):
    """A ``slots``-slot pool, fully held; ``waiters`` waiters of ``want``
    slots each parked in order; then the holder and each waiter, in the
    order they were granted, release, with no arrivals. Returns the
    :class:`_CountingBudget` (``granted_to``, ``misses``)."""
    budget = _CountingBudget(slots)
    held = budget.reserve("holder", want=slots)
    parked = [_park(budget, want) for _ in range(waiters)]
    by_name = {f"w{i}": got for i, (_, got) in enumerate(parked)}
    held.release()
    for turn in range(1, waiters + 1):
        _wait_until(
            lambda: len(budget.granted_to) > turn and by_name[budget.granted_to[turn]]
        )
        by_name[budget.granted_to[turn]][0].release()
    for t, _ in parked:
        t.join(timeout=10)
        assert not t.is_alive()
    return budget


def test_a_release_retries_at_most_one_waiter_per_slot_it_freed():
    b = _CountingBudget(4)
    held = b.reserve("holder", want=4)
    parked = [_park(b, want=3) for _ in range(6)]
    before = b.tried.total()
    held.release(3)
    # only the head is woken: it takes the three slots, the rest stay parked
    _wait_until(lambda: parked[0][1])
    assert parked[0][1][0].granted == 3
    assert b.waiting == 5
    assert b.tried.total() - before == 1
    held.release()
    for t, got in parked:
        _wait_until(lambda: got)
        got[0].release()
        t.join(timeout=10)


def test_a_release_of_three_slots_grants_three_one_slot_waiters():
    b = WorldBudget(3)
    held = b.reserve("holder", want=3)
    parked = [_park(b, want=1) for _ in range(3)]
    held.release()  # the head takes one and wakes the next head, in turn
    for t, got in parked:
        t.join(timeout=10)
        assert got[0] is not None and got[0].granted == 1
    assert b.waiting == 0 and b.free == 0


def test_waiters_are_granted_in_the_order_they_parked():
    b = release_in_turn()
    assert b.granted_to == ["holder"] + [f"w{i}" for i in range(6)]
    assert b.misses == 0
    assert b.in_use == 0 and b.waiting == 0


def test_a_woken_head_an_arrival_beats_is_still_granted_next():
    b = _CountingBudget(1)
    held = b.reserve("holder", want=1)
    (head, head_got), (later, later_got) = _park(b, want=1), _park(b, want=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)  # the woken head cannot run before the arrival
    try:
        held.release()
        arrival = b.reserve("arrival", want=1)
    finally:
        sys.setswitchinterval(interval)
    assert arrival is not None
    _wait_until(lambda: b.misses == 1)  # the head woke and found nothing
    assert b.waiting == 2
    arrival.release()
    _wait_until(lambda: head_got)
    assert b.granted_to == ["holder", "arrival", "w0"]
    assert b.waiting == 1 and not later_got
    head_got[0].release()
    later.join(timeout=10)
    head.join(timeout=10)
    assert later_got[0].granted == 1 and b.granted_to[-1] == "w1"
    later_got[0].release()


def test_a_waiter_that_times_out_leaves_its_place_to_the_next():
    b = WorldBudget(1)
    held = b.reserve("holder", want=1)
    (first, first_got), (second, second_got) = (
        _park(b, want=1, timeout=0.5), _park(b, want=1),
    )
    first.join(timeout=10)
    assert first_got == [None] and b.waiting == 1
    held.release()  # the one wake-up goes to the head still parked
    second.join(timeout=10)
    assert second_got[0] is not None and second_got[0].granted == 1
    second_got[0].release()


def test_a_woken_head_past_its_deadline_still_takes_the_slot(monkeypatch):
    """A release that wakes a head whose deadline has just passed is not
    spent: the head takes the slot rather than leave it free."""
    clock = [time.monotonic()]
    monkeypatch.setattr(budget_module, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    b = WorldBudget(1)
    held = b.reserve("holder", want=1)
    (head, head_got), (later, later_got) = _park(b, want=1, timeout=5.0), _park(b, want=1)
    clock[0] += 10.0  # both deadlines have passed by the head's clock
    held.release()
    head.join(timeout=10)
    assert head_got[0] is not None and head_got[0].granted == 1
    head_got[0].release()
    later.join(timeout=10)
    assert later_got[0] is not None
    later_got[0].release()
