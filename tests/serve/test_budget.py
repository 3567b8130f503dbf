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
    assert b.in_use == 2


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


# -- wake-ups: a release wakes the oldest waiter, or the newest for a lone
# -- slot the oldest's gang will fill on its return ---------------------------


class _CountingBudget(WorldBudget):
    """Records every reservation attempt under the budget's lock: the
    tenants granted, in grant order; the attempts of parked waiters (each
    tenant's second attempt on) that found nothing free; and the lone
    slots granted to the oldest of two or more parked waiters while the
    slots held in multi-slot grants, with that slot, could fill its want.
    Tenants are unique, and only parked waiters fail a first attempt."""

    def __init__(self, slots):
        super().__init__(slots)
        self.tried = collections.Counter()
        self.granted_to = []
        self.misses = 0
        self.lone_slots_to_the_head = 0
        self._live = []

    def _try_reserve(self, tenant, want):
        parked = [t for t in self.tried if t not in self.granted_to]
        gang = sum(r.granted for r in self._live if r.granted > 1)
        lone = self.free == 1 and parked[:1] == [tenant] and len(parked) > 1
        res = super()._try_reserve(tenant, want)
        self.tried[tenant] += 1
        if res is not None:
            self.granted_to.append(tenant)
            self._live.append(res)
            self.lone_slots_to_the_head += lone and 1 < want <= gang + 1
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


def _release_in_grant_order(budget, parked):
    """Release each parked waiter's grant in the order the waiters were
    granted (after the one holder's), then join them."""
    by_name = {f"w{i}": got for i, (_, got) in enumerate(parked)}
    for turn in range(1, len(parked) + 1):
        _wait_until(
            lambda: len(budget.granted_to) > turn and by_name[budget.granted_to[turn]]
        )
        by_name[budget.granted_to[turn]][0].release()
    for t, _ in parked:
        t.join(timeout=10)
        assert not t.is_alive()


def release_in_turn(waiters=6, slots=4, want=3):
    """A ``slots``-slot pool, fully held; ``waiters`` waiters of ``want``
    slots each parked in order; then the holder and each waiter, in the
    order they were granted, release, with no arrivals. Returns the
    :class:`_CountingBudget` (``granted_to``, ``misses``,
    ``lone_slots_to_the_head``)."""
    budget = _CountingBudget(slots)
    held = budget.reserve("holder", want=slots)
    parked = [_park(budget, want) for _ in range(waiters)]
    held.release()
    _release_in_grant_order(budget, parked)
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
    _release_in_grant_order(b, parked)


def test_a_release_of_three_slots_grants_three_one_slot_waiters():
    b = WorldBudget(3)
    held = b.reserve("holder", want=3)
    parked = [_park(b, want=1) for _ in range(3)]
    held.release()  # the head takes one and wakes the next head, in turn
    for t, got in parked:
        t.join(timeout=10)
        assert got[0] is not None and got[0].granted == 1
    assert b.waiting == 0 and b.free == 0


def test_waiters_are_granted_oldest_first_save_a_lone_slot():
    """Each lone slot goes to the newest waiter while the head's gang is
    out, and the head takes the gang when it comes back."""
    b = release_in_turn()
    assert b.granted_to == ["holder", "w0", "w5", "w1", "w4", "w2", "w3"]
    assert b.misses == 0 and b.lone_slots_to_the_head == 0
    assert b.in_use == 0 and b.waiting == 0


def _first_waiter_granted(holds, head_want):
    """A pool of ``sum(holds)`` slots held by grants of ``holds`` slots;
    ``w0`` wanting ``head_want`` and ``w1`` wanting one parked; then the
    second grant is released. Returns (the first waiter granted, its grant)."""
    b = _CountingBudget(sum(holds))
    grants = [b.reserve(f"h{i}", want=n) for i, n in enumerate(holds)]
    parked = [_park(b, want=head_want), _park(b, want=1)]
    grants[1].release()
    _wait_until(lambda: len(b.granted_to) > len(holds))
    first = b.granted_to[len(holds)]
    _, got = parked[int(first[1:])]
    _wait_until(lambda: got)
    granted = got[0].granted
    for res in grants + [got[0]]:
        res.release()
    for t, got in parked:
        t.join(timeout=10)
        assert not t.is_alive()
        got[0].release()
    return first, granted


@pytest.mark.parametrize(
    "holds, head_want, first",
    [
        # the gang out (3) and the lone slot fill the head: the newest takes it
        ((3, 1), 3, ("w1", 1)),
        # a head that wants one slot takes it
        ((3, 1), 1, ("w0", 1)),
        # the gang out (2) and the lone slot cannot fill a head of 4
        ((2, 1, 1), 4, ("w0", 1)),
        # two free slots go to the head, never past it
        ((2, 2), 3, ("w0", 2)),
    ],
)
def test_a_lone_slot_passes_the_head_only_while_its_gang_is_out(holds, head_want, first):
    assert _first_waiter_granted(holds, head_want) == first


def test_a_gang_that_shrinks_to_one_slot_no_longer_holds_the_head_back():
    b = _CountingBudget(4)
    gang, single = b.reserve("gang", want=3), b.reserve("single", want=1)
    parked = [_park(b, want=2), _park(b, want=1), _park(b, want=1)]
    (head, head_got), (middle, middle_got), (newest, newest_got) = parked
    gang.release(1)  # the gang is 2: with the lone slot, it fills the head
    newest.join(timeout=10)
    assert newest_got[0].granted == 1
    gang.release(1)  # the gang is one slot now: the lone slot is the head's
    head.join(timeout=10)
    assert head_got[0].granted == 1
    assert b.granted_to == ["gang", "single", "w2", "w0"]
    for res in (gang, single, newest_got[0], head_got[0]):
        res.release()
    middle.join(timeout=10)
    assert middle_got[0].granted == 1 and b.granted_to[-1] == "w1"
    middle_got[0].release()
    assert b.lone_slots_to_the_head == 0 and b.in_use == 0


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


def test_a_woken_head_an_arrival_leaves_a_lone_slot_wakes_the_newest():
    """A release frees two slots and wakes the head; an arrival takes one
    before the head runs. The lone slot left is the newest waiter's (the
    head's gang is out), so the head wakes that waiter in its place."""
    b = _CountingBudget(5)
    gang, pair = b.reserve("gang", want=3), b.reserve("pair", want=2)
    (head, head_got), (newest, newest_got) = _park(b, want=3), _park(b, want=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)  # the woken head cannot run before the arrival
    try:
        pair.release()
        arrival = b.reserve("arrival", want=1)
    finally:
        sys.setswitchinterval(interval)
    assert arrival.granted == 1
    newest.join(timeout=10)
    assert newest_got[0] is not None and newest_got[0].granted == 1
    assert not head_got and b.waiting == 1
    for res in (gang, arrival, newest_got[0]):
        res.release()
    head.join(timeout=10)
    assert head_got[0].granted == 3
    head_got[0].release()


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


def test_concurrent_grants_and_releases_keep_the_gang_count():
    """Twelve threads reserve, shrink and release on a 4-slot pool with a
    short switch interval: every waiter is granted, and the pool, its
    queue and its count of 1-slot grants all end empty."""
    b = WorldBudget(4)
    failures = []

    def worker(seed):
        for i in range(150):
            want = 1 + (seed + i) % 4
            res = b.reserve_blocking(f"t{seed}", want=want, timeout=10)
            if res is None:
                failures.append((seed, i))
                return
            time.sleep(0)  # hold the grant while others contend
            if res.granted > 1 and i % 3 == 0:
                res.release(res.granted - 1)  # the policy's unused slots
                time.sleep(0)
            res.release()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert b.in_use == 0 and b.waiting == 0 and b._singles == 0
