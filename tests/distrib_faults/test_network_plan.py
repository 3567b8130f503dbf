"""The network model's fault sites: purity, independence, windows."""

import pytest

from repro.faults.plan import HEARTBEAT_SITE, FaultKind, FaultPlan

from netmodel.faults import LINK_SITE, PARTITION_SITE, REMOTE_SITE, NetFaultKind, NetFaultPlan


class TestNetworkSites:
    def test_sites_registered(self):
        assert NetFaultPlan.site_kinds[LINK_SITE] == (
            NetFaultKind.XFER_DROP,
            NetFaultKind.XFER_DUP,
            NetFaultKind.XFER_REORDER,
            NetFaultKind.XFER_CORRUPT,
            NetFaultKind.LINK_SLOW,
        )
        assert NetFaultPlan.site_kinds[PARTITION_SITE] == (NetFaultKind.LINK_FLAP,)
        assert NetFaultPlan.site_kinds[REMOTE_SITE] == (NetFaultKind.REMOTE_CRASH,)
        assert NetFaultPlan.site_kinds[HEARTBEAT_SITE] == (FaultKind.HEARTBEAT_MISS,)

    def test_decisions_pure_in_seed_site_key(self):
        a = NetFaultPlan(seed=9, rates={NetFaultKind.XFER_DROP: 0.5})
        b = NetFaultPlan(seed=9, rates={NetFaultKind.XFER_DROP: 0.5})
        for seq in range(64):
            assert a.decide(LINK_SITE, 0, seq, 0) == b.decide(LINK_SITE, 0, seq, 0)

    def test_attempts_reroll(self):
        plan = NetFaultPlan(seed=4, rates={NetFaultKind.XFER_DROP: 0.5})
        outcomes = {
            plan.decide(LINK_SITE, 0, 7, attempt).fires for attempt in range(32)
        }
        assert outcomes == {True, False}  # the same transfer re-rolls per attempt

    def test_links_independent(self):
        plan = NetFaultPlan(seed=2, rates={NetFaultKind.XFER_DROP: 0.5})
        a = [plan.decide(LINK_SITE, 1, s, 0).fires for s in range(64)]
        b = [plan.decide(LINK_SITE, 2, s, 0).fires for s in range(64)]
        assert a != b

    def test_rate_one_always_fires(self):
        plan = NetFaultPlan(seed=0, rates={NetFaultKind.REMOTE_CRASH: 1.0})
        d = plan.decide(REMOTE_SITE, 5, 0)
        assert d.kind is NetFaultKind.REMOTE_CRASH
        assert d.param == plan.remote_crash_fraction

    def test_slow_param_is_factor(self):
        plan = NetFaultPlan(seed=0, rates={NetFaultKind.LINK_SLOW: 1.0}, slow_factor=7.0)
        assert plan.decide(LINK_SITE, 0, 0, 0).param == 7.0

    def test_lossy_helper(self):
        plan = NetFaultPlan.lossy(seed=3, rate=0.25)
        assert plan.rates == {NetFaultKind.XFER_DROP: 0.25}


class TestPartitionWindows:
    def test_no_flap_rate_means_always_up(self):
        plan = NetFaultPlan.quiet()
        assert not any(plan.link_down(0, t / 10) for t in range(100))

    def test_windows_deterministic(self):
        a = NetFaultPlan(seed=11, rates={NetFaultKind.LINK_FLAP: 0.4})
        b = NetFaultPlan(seed=11, rates={NetFaultKind.LINK_FLAP: 0.4})
        times = [t * 0.05 for t in range(400)]
        assert [a.link_down(3, t) for t in times] == [b.link_down(3, t) for t in times]

    def test_flap_confined_to_window_head(self):
        plan = NetFaultPlan(
            seed=0, rates={NetFaultKind.LINK_FLAP: 1.0},
            partition_window_s=1.0, flap_s=0.25,
        )
        assert plan.link_down(0, 2.1)  # inside the first flap_s of window 2
        assert not plan.link_down(0, 2.6)  # window 2's tail is healthy

    def test_rate_controls_down_fraction(self):
        plan = NetFaultPlan(
            seed=5, rates={NetFaultKind.LINK_FLAP: 0.3},
            partition_window_s=1.0, flap_s=1.0,
        )
        down = sum(plan.link_down(0, w + 0.5) for w in range(400))
        assert 0.2 < down / 400 < 0.4


class TestExistingSitesUndisturbed:
    def test_child_site_schedule_stable_with_network_rates(self):
        # enabling network kinds must not reshuffle child-site decisions
        base = FaultPlan(seed=1, rates={FaultKind.CRASH: 0.3})
        extended = NetFaultPlan(
            seed=1, rates={FaultKind.CRASH: 0.3, NetFaultKind.XFER_DROP: 0.9}
        )
        assert base.schedule(0, 8, attempts=3) == extended.schedule(0, 8, attempts=3)

    def test_unknown_site_still_rejected(self):
        with pytest.raises(ValueError):
            NetFaultPlan.quiet().decide("wormhole", 0)
