"""WorldBudget: grants, preemption, accounting invariants."""

import threading

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
    assert b.reserve("b", want=1) is None  # equal priority: nothing to take


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


def test_preemption_takes_speculative_from_lower_priority():
    b = WorldBudget(4)
    low = b.reserve("low", want=4, priority=0)
    assert low.granted == 4
    high = b.reserve("high", want=3, priority=5)
    assert high is not None and high.granted == 1  # exactly one slot
    assert low.granted == 3
    assert low.preempted == 1
    assert b.in_use == 4  # never above the pool
    assert b.preempted_slots == 1


def test_preemption_never_takes_the_firm_minimum():
    b = WorldBudget(2)
    low = b.reserve("low", want=1, priority=0)
    b.reserve("other", want=1, priority=0)
    assert low.speculative == 0
    # nothing speculative to claw back: the high-priority request waits
    assert b.reserve("high", want=1, priority=5) is None
    assert low.granted == 1


def test_preemption_lowest_priority_pays_first():
    b = WorldBudget(6)
    mid = b.reserve("mid", want=3, priority=2)
    low = b.reserve("low", want=3, priority=1)
    high = b.reserve("high", want=1, priority=9)
    assert high is not None
    assert low.preempted == 1  # the lower priority paid
    assert mid.preempted == 0


def test_equal_priority_never_preempts():
    b = WorldBudget(2)
    b.reserve("a", want=2, priority=3)
    assert b.reserve("b", want=1, priority=3) is None


def test_preemption_tie_goes_to_most_speculative_then_earliest():
    b = WorldBudget(7)
    first = b.reserve("a", want=2, priority=0)
    most = b.reserve("b", want=3, priority=0)
    last = b.reserve("c", want=2, priority=0)
    assert b.reserve("d", want=1, priority=1).granted == 1
    assert (first.preempted, most.preempted, last.preempted) == (0, 1, 0)
    b.reserve("e", want=1, priority=1)  # now all three hold two: the earliest pays
    assert (first.preempted, most.preempted, last.preempted) == (1, 1, 0)


def test_a_tenant_holding_every_slot_never_preempts_itself():
    b = WorldBudget(3)
    low = b.reserve("a", want=3, priority=0)
    assert b.reserve("a", want=1, priority=5) is None
    assert low.granted == 3 and low.preempted == 0


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
    low = b.reserve("low", want=4, priority=0)
    b.reserve("high", want=1, priority=1)
    assert (
        obs.registry.get("mw_serve_preemptions_total").value(tenant="low") == 1.0
    )
