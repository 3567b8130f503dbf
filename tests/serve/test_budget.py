"""WorldBudget: grants, accounting invariants, wake-ups."""

import threading
import time

import pytest

from repro.errors import ServeError
from repro.obs import Observability
from repro.serve import WorldBudget


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


# -- wake-ups: a release wakes one waiter per slot it freed -----------------


class _CountingBudget(WorldBudget):
    """Counts reservation attempts: each waiter's first, and every retry."""

    attempts = 0

    def _try_reserve(self, *args):
        self.attempts += 1
        return super()._try_reserve(*args)


def _parked(budget):
    """Waiters parked on the budget's condition right now."""
    with budget._cond:
        return len(budget._cond._waiters)


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.001)


def _waiters(budget, n, want, done, timeout=10.0):
    """Start ``n`` threads that each reserve ``want`` slots, park until
    ``done`` once granted, then release; returns (threads, grants)."""
    grants = []

    def wait_for_slots():
        res = budget.reserve_blocking("w", want=want, timeout=timeout)
        grants.append(res)
        done.wait(timeout)
        if res is not None:
            res.release()

    threads = [threading.Thread(target=wait_for_slots) for _ in range(n)]
    for t in threads:
        t.start()
    return threads, grants


def _finish(threads, done, *held):
    done.set()
    for res in held:
        res.release()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)


def test_a_release_retries_at_most_one_waiter_per_slot_it_freed():
    b = _CountingBudget(4)
    held = b.reserve("holder", want=4)
    done = threading.Event()
    threads, grants = _waiters(b, 6, want=3, done=done)
    try:
        _wait_until(lambda: _parked(b) == 6)
        before = b.attempts
        held.release(3)
        # one waiter takes the three slots; each other one woken retried
        # and parked again
        _wait_until(lambda: len(grants) == 1 and _parked(b) == 5)
        assert grants[0].granted == 3
        assert b.attempts - before <= 3
    finally:
        _finish(threads, done, held)


def test_a_release_of_three_slots_grants_three_one_slot_waiters():
    b = WorldBudget(3)
    held = b.reserve("holder", want=3)
    done = threading.Event()
    threads, grants = _waiters(b, 3, want=1, done=done)
    try:
        _wait_until(lambda: _parked(b) == 3)
        held.release()
        _wait_until(lambda: len(grants) == 3)
        assert all(res is not None and res.granted == 1 for res in grants)
    finally:
        _finish(threads, done)


class _TimesOutWhenWoken(threading.Condition):
    """For one thread, a wait reports a timeout even when a notify woke
    it: the race in which a timed-out wait spends a wake-up that a
    release meant for another waiter."""

    victim = None

    def wait(self, timeout=None):
        woken = super().wait(timeout)
        return woken and threading.current_thread() is not self.victim


def test_a_woken_waiter_that_times_out_hands_the_wake_up_on():
    b = WorldBudget(1)
    b._cond = cond = _TimesOutWhenWoken()
    held = b.reserve("holder", want=1)
    done = threading.Event()
    first, first_grant = _waiters(b, 1, want=1, done=done)
    cond.victim = first[0]
    _wait_until(lambda: _parked(b) == 1)
    second, second_grant = _waiters(b, 1, want=1, done=done)
    try:
        _wait_until(lambda: _parked(b) == 2)
        held.release()  # one slot: one wake-up, and the first waiter spends it
        _wait_until(lambda: len(first_grant) == 1 and len(second_grant) == 1, timeout=5)
        assert first_grant == [None]
        assert second_grant[0] is not None and second_grant[0].granted == 1
    finally:
        _finish(first + second, done)
