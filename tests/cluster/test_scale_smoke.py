"""Scale-out and kill-recovery smokes: the two ratios ``mw-e2e`` has no
workload for, at the burst sizes and thresholds CI has always gated
them on. Throughput rises over 1 < 2 < 4 shards (each brings its own
budget and workers), and a burst with one of four shards killed and
taken over halfway holds >= 70 % of the healthy burst's throughput —
in-process (``crash()``) and out of process (a real ``kill -9``; only
the journal file survives). That such a burst commits exactly once is
``test_failover_fuzz`` / ``test_remote_fuzz``'s business.
"""

import functools
import tempfile
import time

import pytest

from repro.cluster import ClusterRouter, ClusterShard, RemoteShardClient

TENANTS = 16  # enough tenants that the ring balances 1/2/4-shard splits
WORK_S = 0.004
#: a burst lasts ~20 ms, and on a shared box the scheduler only ever
#: makes one read slow: each throughput compared is the best of this
#: many bursts, the kinds interleaved so a stall cannot hit one side only
ROUNDS = 5


def val(ws, i=0):
    # module-level so it pickles across the process boundary
    time.sleep(WORK_S)
    return i * 7


def local_fleet(n_shards, tmp_path=None):
    return [ClusterShard(sid, slots=2, workers=4) for sid in range(n_shards)]


def remote_fleet(n_shards, tmp_path):
    workdir = tempfile.mkdtemp(dir=tmp_path)  # fresh journals per burst
    return [
        RemoteShardClient(sid, workdir=f"{workdir}/shard{sid}", slots=2, workers=4)
        for sid in range(n_shards)
    ]


def burst_rps(shards, n_requests, kill=None):
    """Requests/s of one burst over ``shards``; ``kill(shard)`` fells
    tenant-0's shard halfway through, and the takeover runs inline."""
    router = ClusterRouter(shards).start(detect=False)
    try:
        tickets = []
        start = time.monotonic()
        for i in range(n_requests):
            if kill is not None and i == n_requests // 2:
                victim = router.ring.route("tenant-0")
                kill(router.shard(victim))
                router.takeover(victim)
            tickets.append(
                router.submit(f"tenant-{i % TENANTS}", [functools.partial(val, i=i)])
            )
        results = [t.result(timeout=60.0) for t in tickets]
        wall_s = time.monotonic() - start
    finally:
        router.stop()
    uncommitted = [(r.seq, r.status, r.reason) for r in results if not r.committed]
    assert not uncommitted, (
        f"{'kill' if kill else 'healthy'} burst, uncommitted (seq, status, "
        f"reason): {uncommitted}"
    )
    return n_requests / wall_s


def best_rps(bursts):
    """``{kind: best requests/s}`` over ROUNDS rounds of ``{kind: burst}``."""
    best = dict.fromkeys(bursts, 0.0)
    for _ in range(ROUNDS):
        for kind, burst in bursts.items():
            best[kind] = max(best[kind], burst())
    return best


def test_throughput_rises_with_shard_count():
    rps = best_rps(
        {n: (lambda n=n: burst_rps(local_fleet(n), 24)) for n in (1, 2, 4)}
    )
    assert rps[1] < rps[2] < rps[4], rps


@pytest.mark.parametrize(
    "fleet, n_requests, kill",
    [(local_fleet, 24, ClusterShard.crash), (remote_fleet, 16, RemoteShardClient.sigkill)],
    ids=["shard-crash", "host-sigkill"],
)
def test_kill_holds_70pct_of_healthy_throughput(fleet, n_requests, kill, tmp_path):
    rps = best_rps({
        "healthy": lambda: burst_rps(fleet(4, tmp_path), n_requests),
        "kill": lambda: burst_rps(fleet(4, tmp_path), n_requests, kill=kill),
    })
    ratio = rps["kill"] / rps["healthy"]
    assert ratio >= 0.70, (
        f"kill burst {rps['kill']:.1f} req/s vs healthy {rps['healthy']:.1f} "
        f"req/s: ratio {ratio:.3f} < 0.70"
    )
