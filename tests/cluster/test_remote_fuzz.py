"""Seeded real-process fault fuzz: ``kill -9`` and ``kill -STOP``
mid-burst, exactly-once.

The out-of-process twin of ``test_failover_fuzz``: each seed runs
:func:`repro.chaos.soak.run_remote_incarnation`, a burst against three
shard-host *processes* whose ``transport`` fault-plan site decides what
happens to which host. A SIGKILLed host is a real ``kill -9`` — only its
journal file survives — followed by takeover. A SIGSTOPped host stays
alive and silent while the burst goes on (a submit homed there times out,
which makes the router crash it before walking on) and is SIGCONTed when
its time is up. Every request must commit its value exactly once, and
every host must be reaped once the router stops.
``REMOTE_FUZZ_SEEDS`` raises the seed count (CI's fuzz smoke runs 5);
``mw-e2e``'s ``cluster_remote`` workload measures the same path when
nothing dies, and ``test_scale_smoke`` what a kill costs in throughput.
"""

import functools
import os
import time

import pytest

from repro.chaos.soak import run_remote_incarnation
from repro.cluster import ClusterRouter, RemoteShardClient

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
        )
        for sid in range(N_SHARDS)
    ]
    return remotes


@pytest.mark.parametrize("seed", SEEDS)
def test_sigkill_mid_burst_commits_exactly_once(seed, tmp_path):
    violations, _kills = run_remote_incarnation(
        seed, shards=N_SHARDS, requests=N_REQUESTS, workdir=str(tmp_path / "hosts"),
    )
    assert not violations, [v.as_dict() for v in violations]


def test_detector_discovers_sigkilled_host(tmp_path):
    """The full path: a silent host found by real heartbeat pings alone."""
    remotes = make_cluster(tmp_path, seed=0)
    router = ClusterRouter(remotes).start()
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
