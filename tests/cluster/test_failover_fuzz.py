"""Seeded shard-kill fuzz: every admitted request commits exactly once.

Each seed runs a burst against a 3-shard cluster, consults the fault
plan's ``cluster`` site for which shard dies and when (mid-burst), kills
it there, runs takeover, then audits every journal the cluster ever
owned: a committed request's ``block`` transaction applied in exactly
one journal — 0 would be a lost commit, ≥2 a double commit.
``CLUSTER_FUZZ_SEEDS`` raises the seed count (CI's fuzz smoke runs 8);
``test_scale_smoke`` holds what a kill costs in throughput.
"""

import os
import time

import pytest

from repro.cluster import ClusterRouter, ClusterShard
from repro.faults.plan import FaultKind, FaultPlan

SEEDS = range(1, 1 + int(os.environ.get("CLUSTER_FUZZ_SEEDS", "6")))


def alts(i):
    def compute(ws):
        time.sleep(0.001)
        return i * 7

    return [compute]


@pytest.mark.parametrize("seed", SEEDS)
def test_mid_burst_shard_kill_commits_exactly_once(seed):
    plan = FaultPlan(
        seed=seed,
        rates={FaultKind.SHARD_CRASH: 0.6},
        shard_crash_fraction=0.5,
    )
    shards = [ClusterShard(i, slots=2, workers=2, fault_plan=None) for i in range(3)]
    router = ClusterRouter(shards, fault_plan=plan).start(detect=False)
    n_requests = 30
    try:
        # which shard dies this epoch, and at what point of the burst?
        doomed = [
            (sid, router.crash_decision(sid, epoch=0))
            for sid in range(3)
            if router.crash_decision(sid, epoch=0) is not None
        ]
        kill_at = {
            sid: int(frac * n_requests) for sid, frac in doomed[:2]
        }  # keep one survivor

        tickets = []
        for i in range(n_requests):
            for sid, at in list(kill_at.items()):
                if i == at:
                    router.kill_shard(sid)
                    router.takeover(sid)
                    del kill_at[sid]
            tickets.append(router.submit(f"tenant-{i % 6}", alts(i)))
        for sid in kill_at:
            router.kill_shard(sid)
            router.takeover(sid)

        results = [t.result(timeout=30) for t in tickets]
        committed = [r for r in results if r.committed]
        # nothing may be lost: every admitted request settles committed
        # (failed would mean the re-land path dropped it on the floor —
        # with a survivor left there is always somewhere to land)
        assert len(committed) == n_requests, [
            (r.status, r.reason) for r in results if not r.committed
        ]
        # and every result — served, replayed or re-landed — carries the
        # value its alternatives compute
        for i, r in enumerate(results):
            assert r.value == i * 7, (i, r)

        audit = router.audit_applied()
        for r in committed:
            applied = audit.get(r.seq, 0)
            assert applied == 1, (
                f"seed {seed}: request {r.seq} applied {applied} times "
                f"(failover={r.failover!r})"
            )
    finally:
        router.stop()


@pytest.mark.parametrize("seed", [2, 9])
def test_detector_driven_kill_with_partitions(seed):
    """Crash + router partitions at once, detection via heartbeats only."""
    plan = FaultPlan(
        seed=seed,
        rates={
            FaultKind.ROUTER_PARTITION: 0.15,
            FaultKind.HEARTBEAT_MISS: 0.05,
        },
        partition_beats=2.0,
    )
    shards = [ClusterShard(i, slots=2, workers=2) for i in range(3)]
    router = ClusterRouter(
        shards, fault_plan=plan, miss_threshold=4, lease_term_s=100.0
    ).start(detect=False)
    try:
        tickets = [router.submit(f"t{i % 5}", alts(i)) for i in range(20)]
        victim = router.ring.route("t0")
        router.shard(victim).crash()
        for _ in range(60):
            router.heartbeat_round()
            if victim not in {s["shard"] for s in router.snapshot()["members"]}:
                break
        members = {s["shard"] for s in router.snapshot()["members"]}
        assert victim not in members, "heartbeats must find the corpse"
        results = [t.result(timeout=30) for t in tickets]
        assert all(r.committed for r in results)
        audit = router.audit_applied()
        assert all(audit.get(r.seq, 0) == 1 for r in results)
    finally:
        router.stop()
