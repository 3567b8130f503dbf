"""Leased remote worlds: the state machine and supervised crash recovery."""

import pytest

from repro.analysis.calibration import NetworkProfile
from repro.distrib.lease import (
    LeaseState,
    RemoteNode,
    RemoteWorldLease,
    heartbeat_lost,
)
from repro.distrib.netsim import SimulatedLink
from repro.distrib.rfork import RemoteFork
from repro.errors import NetworkError
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.supervisor import Supervisor

FAST = NetworkProfile("fast", latency_s=0.001, bandwidth_bytes_s=1e8)


def _answer(state):
    return state.get("x", 0) + 40


class TestLeaseStateMachine:
    def test_grant_and_complete(self):
        lease = RemoteWorldLease(lease_id=1, node_id=2)
        assert lease.state is LeaseState.ACTIVE
        lease.renew(0.1)
        lease.complete(0.2)
        assert lease.state is LeaseState.COMPLETED
        assert lease.event_names == ["granted", "completed"]

    def test_miss_suspects_then_probe_recovers(self):
        lease = RemoteWorldLease(lease_id=1, node_id=2)
        lease.miss(0.1, "beat lost")
        assert lease.state is LeaseState.SUSPECT
        lease.renew(0.2)
        assert lease.state is LeaseState.ACTIVE
        assert lease.consecutive_misses == 0
        assert "recovered" in lease.event_names

    def test_declare_dead_then_reclaim(self):
        lease = RemoteWorldLease(lease_id=1, node_id=2)
        for i in range(3):
            lease.miss(0.1 * (i + 1))
        lease.declare_dead(0.4, "3 consecutive misses")
        lease.reclaim(0.4)
        assert lease.state is LeaseState.RECLAIMED

    def test_cannot_reclaim_living_lease(self):
        lease = RemoteWorldLease(lease_id=1, node_id=2)
        with pytest.raises(NetworkError):
            lease.reclaim(0.1)

    def test_late_result_from_reclaimed_world_rejected(self):
        lease = RemoteWorldLease(lease_id=1, node_id=2)
        lease.declare_dead(0.3, "test")
        lease.reclaim(0.3)
        with pytest.raises(NetworkError, match="must not commit"):
            lease.complete(0.5)

    def test_term_expiry(self):
        lease = RemoteWorldLease(lease_id=1, node_id=2, term_s=0.5)
        lease.renew(0.2)
        assert not lease.check_expiry(0.6)
        assert lease.check_expiry(0.75)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(NetworkError):
            RemoteWorldLease(lease_id=1, node_id=2, term_s=0.0)
        with pytest.raises(NetworkError):
            RemoteWorldLease(lease_id=1, node_id=2, miss_threshold=0)


class TestTerminalTransitionGuards:
    """Terminal states are sticky: late detectors must not re-log or revive."""

    def test_double_declare_dead_is_a_noop(self):
        lease = RemoteWorldLease(lease_id=1, node_id=2)
        lease.declare_dead(0.3, "misses")
        events = list(lease.event_names)
        lease.declare_dead(0.4, "late detector repeats itself")
        assert lease.state is LeaseState.DEAD
        assert lease.event_names == events  # nothing re-logged

    def test_declare_dead_on_completed_is_a_noop(self):
        lease = RemoteWorldLease(lease_id=1, node_id=2)
        lease.complete(0.2)
        lease.declare_dead(0.3, "detector fired after commit")
        assert lease.state is LeaseState.COMPLETED
        assert lease.event_names == ["granted", "completed"]

    def test_declare_dead_on_reclaimed_is_a_noop(self):
        lease = RemoteWorldLease(lease_id=1, node_id=2)
        lease.declare_dead(0.3, "misses")
        lease.reclaim(0.3)
        lease.declare_dead(0.4, "second detector path")
        assert lease.state is LeaseState.RECLAIMED

    def test_reclaim_twice_does_not_relog(self):
        lease = RemoteWorldLease(lease_id=1, node_id=2)
        lease.declare_dead(0.3, "misses")
        lease.reclaim(0.3)
        events = list(lease.event_names)
        lease.reclaim(0.5)
        assert lease.state is LeaseState.RECLAIMED
        assert lease.event_names == events

    def test_reclaim_after_complete_still_rejected(self):
        lease = RemoteWorldLease(lease_id=1, node_id=2)
        lease.complete(0.2)
        with pytest.raises(NetworkError):
            lease.reclaim(0.3)


def _lease_after(prelude):
    lease = RemoteWorldLease(lease_id=1, node_id=2)  # term 0.5s, threshold 3
    for step, at_s in prelude:
        getattr(lease, step)(*at_s)
    return lease


class TestBeat:
    """The failure detector's one step: what it is told, what it decides."""

    UNREACHABLE = dict(alive=True, reachable=False, lost=False, reason="cut off")
    CRASHED = dict(alive=False, reachable=True, lost=False, reason="crashed")

    @pytest.mark.parametrize(
        "prelude, at_s, seen, state, logged",
        [
            # the beat arrived: renew, nothing to log
            ([], 0.1, dict(alive=True, reachable=True, lost=False, reason=""),
             LeaseState.ACTIVE, []),
            # lost in flight, holder alive and reachable: the probe rescues it
            ([], 0.1, dict(alive=True, reachable=True, lost=True, reason="lost"),
             LeaseState.ACTIVE, ["suspect", "recovered", "probe-ok"]),
            # unreachable: the probe takes the beat's own dead path
            ([], 0.1, UNREACHABLE, LeaseState.SUSPECT, ["suspect", "probe-fail"]),
            # a crashed holder cannot answer the probe either
            ([], 0.1, CRASHED, LeaseState.SUSPECT, ["suspect", "probe-fail"]),
            # an arriving beat clears an earlier suspicion without a probe
            ([("miss", (0.1, "lost"))], 0.2,
             dict(alive=True, reachable=True, lost=False, reason=""),
             LeaseState.ACTIVE, ["recovered"]),
            # the third miss in a row reaches miss_threshold
            ([("miss", (0.1, "x")), ("miss", (0.2, "x"))], 0.3, CRASHED,
             LeaseState.DEAD, ["probe-fail", "declare-dead"]),
            # a full term without renewal, whatever the miss counter says
            ([], 0.5, UNREACHABLE, LeaseState.DEAD,
             ["suspect", "probe-fail", "declare-dead"]),
            # settled leases are left exactly as they were
            ([("declare_dead", (0.1, "x"))], 0.2, CRASHED, LeaseState.DEAD, []),
            ([("declare_dead", (0.1, "x")), ("reclaim", (0.1,))], 0.2,
             dict(alive=True, reachable=True, lost=False, reason=""),
             LeaseState.RECLAIMED, []),
            ([("complete", (0.1,))], 0.2, UNREACHABLE, LeaseState.COMPLETED, []),
        ],
    )
    def test_verdict_state_and_events(self, prelude, at_s, seen, state, logged):
        lease = _lease_after(prelude)
        before = list(lease.event_names)
        counters = (lease.beats_ok, lease.beats_missed)
        assert lease.beat(at_s, **seen) is state
        assert lease.state is state
        assert lease.event_names == before + logged
        if not logged and state is not LeaseState.ACTIVE:
            assert (lease.beats_ok, lease.beats_missed) == counters

    def test_declaration_names_the_rule_and_the_reason(self):
        lease = _lease_after([("miss", (0.1, "x")), ("miss", (0.2, "x"))])
        lease.beat(0.3, **self.CRASHED)
        assert lease.events[-1].detail == "3 consecutive misses (crashed)"
        lease = _lease_after([])
        lease.beat(0.5, **self.UNREACHABLE)
        assert lease.events[-1].detail == "lease expired (cut off)"


class TestTakeover:
    def test_takeover_requires_a_dead_holder(self):
        lease = RemoteWorldLease(lease_id=7, node_id=2)
        with pytest.raises(NetworkError, match="declare the holder dead"):
            lease.takeover(0.2, new_node_id=3)
        lease.complete(0.2)
        with pytest.raises(NetworkError):
            lease.takeover(0.3, new_node_id=3)

    def test_takeover_hands_work_to_the_successor(self):
        lease = RemoteWorldLease(
            lease_id=7, node_id=2, term_s=0.8, heartbeat_s=0.2, miss_threshold=5
        )
        lease.declare_dead(0.4, "holder crashed")
        successor = lease.takeover(0.5, new_node_id=9)
        assert successor.lease_id == 7
        assert successor.node_id == 9
        assert successor.state is LeaseState.ACTIVE
        assert successor.granted_at_s == 0.5
        # timing knobs carry over; the lineage is on the predecessor's log
        assert successor.term_s == 0.8
        assert successor.miss_threshold == 5
        assert "takeover" in lease.event_names

    def test_takeover_after_reclaim_allowed(self):
        lease = RemoteWorldLease(lease_id=7, node_id=2)
        lease.declare_dead(0.3, "misses")
        lease.reclaim(0.3)
        successor = lease.takeover(0.4, new_node_id=5)
        assert successor.state is LeaseState.ACTIVE


class TestFaultPlanHooks:
    def test_remote_node_crash_time(self):
        plan = FaultPlan(
            seed=0, rates={FaultKind.REMOTE_CRASH: 1.0}, remote_crash_fraction=0.25
        )
        node = RemoteNode(node_id=3, plan=plan)
        assert node.crash_time(work_s=2.0) == pytest.approx(0.5)
        assert RemoteNode(node_id=3, plan=None).crash_time(2.0) is None

    def test_heartbeat_loss_deterministic(self):
        plan = FaultPlan(seed=5, rates={FaultKind.HEARTBEAT_MISS: 0.4})
        a = [heartbeat_lost(plan, 1, b) for b in range(64)]
        b = [heartbeat_lost(plan, 1, b) for b in range(64)]
        assert a == b
        assert any(a) and not all(a)


def make_supervisor(rates, seed=0, **plan_knobs):
    plan = FaultPlan(seed=seed, rates=rates, **plan_knobs)
    link = SimulatedLink(FAST, fault_plan=plan, seed=seed)
    rfork = RemoteFork(link=link, node_id=1)
    sup = Supervisor(fault_plan=plan)
    return sup, rfork


class TestRunRemote:
    def test_quiet_plan_completes_remotely(self):
        sup, rfork = make_supervisor({})
        outcome = sup.run_remote(_answer, {"x": 2}, rfork=rfork, work_s=0.5)
        assert outcome.winner.value == 42
        assert not outcome.relanded
        assert outcome.lease_events[-1]["event"] == "completed"
        assert outcome.extras["remote"]["beats_missed"] == 0

    def test_killed_remote_world_relands_locally(self):
        # acceptance: a killed remote world is detected by lease expiry
        # and the work re-lands locally with the correct value
        sup, rfork = make_supervisor({FaultKind.REMOTE_CRASH: 1.0})
        outcome = sup.run_remote(
            _answer, {"x": 2}, rfork=rfork, work_s=1.0, local_backend="sequential"
        )
        assert outcome.winner.value == 42
        assert outcome.relanded
        events = [e["event"] for e in outcome.lease_events]
        assert events[0] == "granted"
        assert "declare-dead" in events
        assert events[-1] == "reclaim-orphan"
        # the degradation ladder starts at the remote rung
        assert outcome.extras["degraded"][0]["backend"] == "remote"

    def test_unreachable_node_relands(self):
        sup, rfork = make_supervisor({FaultKind.XFER_DROP: 1.0})
        outcome = sup.run_remote(
            _answer, {"x": 2}, rfork=rfork, local_backend="sequential"
        )
        assert outcome.winner.value == 42
        assert outcome.relanded
        assert outcome.extras["degraded"][0]["error"] == "remote-unreachable"
        assert outcome.extras["remote"]["ship"]["retries"] == rfork.retry.max_retries

    def test_lost_heartbeats_rescued_by_probe(self):
        # beats vanish in flight but the node is alive and the link is up:
        # every suspicion must be rescued by a probe, never a declaration
        sup, rfork = make_supervisor({FaultKind.HEARTBEAT_MISS: 0.5}, seed=2)
        outcome = sup.run_remote(_answer, {"x": 2}, rfork=rfork, work_s=1.0)
        assert outcome.winner.value == 42
        assert not outcome.relanded
        events = [e["event"] for e in outcome.lease_events]
        assert "declare-dead" not in events
        if "suspect" in events:
            assert "probe-ok" in events

    @pytest.mark.parametrize("seed", range(6))
    def test_always_commits_under_mixed_faults(self, seed):
        sup, rfork = make_supervisor(
            {
                FaultKind.XFER_DROP: 0.3,
                FaultKind.REMOTE_CRASH: 0.3,
                FaultKind.HEARTBEAT_MISS: 0.2,
            },
            seed=seed,
        )
        outcome = sup.run_remote(
            _answer, {"x": 2}, rfork=rfork, work_s=1.0,
            local_backend="sequential",
        )
        assert outcome.winner is not None
        assert outcome.winner.value == 42

    def test_lease_log_of_a_seeded_run_is_pinned(self):
        # captured on the tree before the beat moved onto the lease: lost
        # beats rescued by probes, then the node dies and is declared
        sup, rfork = make_supervisor(
            {
                FaultKind.REMOTE_CRASH: 0.4, FaultKind.HEARTBEAT_MISS: 0.3,
                FaultKind.LINK_FLAP: 0.3, FaultKind.XFER_DROP: 0.1,
            },
            seed=10,
        )
        outcome = sup.run_remote(
            _answer, {"x": 2}, rfork=rfork, work_s=1.0,
            local_backend="sequential",
        )
        events = [
            (round(e["at_s"], 4), e["event"], e["detail"])
            for e in outcome.lease_events
        ]
        assert events == [
            (0.0, "granted", "term=0.5s"),
            (0.101, "suspect", "beat lost in flight"),
            (0.101, "recovered", ""),
            (0.101, "probe-ok", ""),
            (0.201, "suspect", "beat lost in flight"),
            (0.201, "recovered", ""),
            (0.201, "probe-ok", ""),
            (0.401, "suspect", "beat lost in flight"),
            (0.401, "recovered", ""),
            (0.401, "probe-ok", ""),
            (0.501, "suspect", "node crashed"),
            (0.501, "probe-fail", "node crashed"),
            (0.601, "probe-fail", "node crashed"),
            (0.701, "probe-fail", "node crashed"),
            (0.701, "declare-dead", "3 consecutive misses (node crashed)"),
            (0.701, "reclaim-orphan", ""),
        ]
        assert outcome.relanded and outcome.winner.value == 42

    def test_same_seed_identical_lease_history(self):
        def run(seed):
            sup, rfork = make_supervisor(
                {
                    FaultKind.XFER_DROP: 0.2,
                    FaultKind.REMOTE_CRASH: 0.4,
                    FaultKind.HEARTBEAT_MISS: 0.3,
                },
                seed=seed,
            )
            outcome = sup.run_remote(
                _answer, {"x": 2}, rfork=rfork, work_s=1.0,
                local_backend="sequential",
            )
            return (
                [(e["at_s"], e["event"], e["detail"]) for e in outcome.lease_events],
                outcome.relanded,
                outcome.winner.value,
            )

        assert run(13) == run(13)
        # and seeds genuinely vary the history
        histories = {tuple(map(tuple, run(s)[0])) for s in range(5)}
        assert len(histories) > 1
