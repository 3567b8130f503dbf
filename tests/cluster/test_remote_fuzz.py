"""Seeded real-process fault fuzz: ``kill -9`` and ``kill -STOP``
mid-burst, exactly-once.

The out-of-process twin of ``test_failover_fuzz``: each seed runs a
burst against three shard-host *processes* and consults the fault plan's
``transport`` site for what happens to which host. A SIGKILLed host is a
real ``kill -9`` — only its journal file survives — followed by
takeover. A SIGSTOPped host stays alive and silent while the burst goes
on (a submit homed there times out, which makes the router fence it
before walking on) and is SIGCONTed when its time is up. Either way every
journal is audited for the exactly-once invariant.
``REMOTE_FUZZ_SEEDS`` raises the seed count (CI's fuzz smoke runs 5);
``mw-e2e``'s ``cluster_remote`` workload measures the same path when
nothing dies, and ``test_scale_smoke`` what a kill costs in throughput.
"""

import functools
import os
import time

import pytest

from repro.cluster import ClusterRouter, RemoteShardClient, host_fault_decision
from repro.faults.plan import FaultKind, FaultPlan

SEEDS = range(1, 1 + int(os.environ.get("REMOTE_FUZZ_SEEDS", "3")))
N_SHARDS = 3
N_REQUESTS = 16


def val(ws, i=0):
    time.sleep(0.002)
    return i * 7


def alts(i):
    return [functools.partial(val, i=i)]


def make_cluster(tmp_path, seed):
    remotes = [
        RemoteShardClient(
            sid,
            workdir=str(tmp_path / f"seed{seed}-shard{sid}"),
            slots=2, workers=2, call_timeout_s=0.4,
            breaker_threshold=2, breaker_cooldown_s=0.2,
        )
        for sid in range(N_SHARDS)
    ]
    return remotes


@pytest.mark.parametrize("seed", SEEDS)
def test_sigkill_mid_burst_commits_exactly_once(seed, tmp_path):
    plan = FaultPlan(
        seed=seed,
        rates={FaultKind.HOST_SIGKILL: 0.6, FaultKind.HOST_SIGSTOP: 0.3},
        host_kill_fraction=0.5,
    )
    remotes = make_cluster(tmp_path, seed)
    router = ClusterRouter(remotes).start(detect=False)
    try:
        verdicts = [
            (sid, verdict) for sid in range(N_SHARDS)
            if (verdict := host_fault_decision(plan, sid, epoch=0)) is not None
        ][:2]  # keep one survivor
        strike_at = int(plan.host_kill_fraction * N_REQUESTS)
        thaw_at = {}

        tickets = []
        for i in range(N_REQUESTS):
            if i == strike_at:
                for sid, (kind, param) in verdicts:
                    if kind is FaultKind.HOST_SIGKILL:
                        remotes[sid].sigkill()  # the real thing
                        router.takeover(sid)
                    else:
                        remotes[sid].sigstop()  # alive, silent
                        thaw_at[sid] = time.monotonic() + param
            tickets.append(router.submit(f"tenant-{i % 5}", alts(i)))
        for sid, at in thaw_at.items():
            time.sleep(max(0.0, at - time.monotonic()))
            remotes[sid].sigcont()

        results = [t.result(timeout=30) for t in tickets]
        committed = [r for r in results if r.committed]
        assert len(committed) == N_REQUESTS, [
            (r.status, r.reason) for r in results if not r.committed
        ]
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
    assert all(not r.process_alive() for r in remotes)


def test_detector_discovers_sigkilled_host(tmp_path):
    """The full path: a silent host found by real heartbeat pings alone."""
    remotes = make_cluster(tmp_path, seed=0)
    router = ClusterRouter(
        remotes, heartbeat_s=0.05, miss_threshold=2, detect_interval_s=0.02
    ).start()
    try:
        tickets = [router.submit(f"t{i % 5}", alts(i)) for i in range(12)]
        victim = router.ring.route("t0")
        remotes[victim].sigkill()  # no takeover call: the detector must act
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            members = {s["shard"] for s in router.snapshot()["members"]}
            if victim not in members:
                break
            time.sleep(0.05)
        assert victim not in {
            s["shard"] for s in router.snapshot()["members"]
        }, "heartbeats must find the corpse"
        results = [t.result(timeout=30) for t in tickets]
        assert all(r.committed for r in results)
        audit = router.audit_applied()
        assert all(audit.get(r.seq, 0) == 1 for r in results)
    finally:
        router.stop()
