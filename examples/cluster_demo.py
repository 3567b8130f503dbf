#!/usr/bin/env python3
"""A 3-shard speculation cluster surviving a shard kill mid-burst.

One :class:`~repro.serve.service.SpeculationService` is one machine;
``repro.cluster`` shards tenants across several and keeps the
exactly-once commit guarantee when one of them dies. This demo:

1. routes a burst of lookups from six tenants across three shards
   (consistent hashing — each tenant has a stable home shard);
2. kills one shard mid-burst and takes it over: requests whose commit
   already applied in the dead shard's journal are *replayed* with
   their original value, the rest *re-land* on surviving shards under
   the same request seq;
3. gracefully decommissions a second shard — it serves the backlog it
   accepted, then leaves the membership the way a dead shard does;
4. audits every journal the cluster ever owned: each committed request
   applied exactly once, kills and all.

Run it:

    PYTHONPATH=src python examples/cluster_demo.py
"""

import collections
import time

from repro.cluster import ClusterRouter, ClusterShard


def cache_lookup(ws):
    time.sleep(0.003)
    return f"hit:{ws['key']}"


def disk_lookup(ws):
    time.sleep(0.015)
    return f"read:{ws['key']}"


ALTERNATIVES = [cache_lookup, disk_lookup]


def burst(router, n, tag):
    return [
        (
            f"tenant-{i % 6}",
            router.submit(
                f"tenant-{i % 6}", ALTERNATIVES,
                initial={"key": f"{tag}{i}"},
            ),
        )
        for i in range(n)
    ]


def settle(tickets):
    tally = collections.Counter()
    for tenant, ticket in tickets:
        result = ticket.result(timeout=30)
        tally[(result.status, result.failover or "served")] += 1
    return tally


def main():
    shards = [ClusterShard(i, slots=2, workers=4) for i in range(3)]
    router = ClusterRouter(shards).start(detect=False)

    print("== 1. healthy burst across 3 shards")
    tickets = burst(router, 18, "a")
    for (status, how), n in sorted(settle(tickets).items()):
        print(f"   {n:3d} × {status} ({how})")
    homes = {t: router.ring.route(t) for t in sorted({t for t, _ in tickets})}
    print(f"   tenant homes: {homes}")

    print("== 2. kill shard mid-burst, take it over")
    victim = router.ring.route("tenant-0")
    tickets = burst(router, 9, "b")
    router.kill_shard(victim)
    report = router.takeover(victim)
    tickets += burst(router, 9, "c")
    print(
        f"   shard {victim} died: replayed={report['replayed']} "
        f"relanded={report['relanded']} failed={report['failed']}"
    )
    for (status, how), n in sorted(settle(tickets).items()):
        print(f"   {n:3d} × {status} ({how})")

    print("== 3. graceful decommission serves the backlog in place")
    survivor = next(s["shard"] for s in router.snapshot()["members"])
    tickets = burst(router, 9, "d")
    router.decommission(survivor)
    for (status, how), n in sorted(settle(tickets).items()):
        print(f"   {n:3d} × {status} ({how})")

    print("== 4. exactly-once audit across every journal")
    counts = collections.Counter(router.audit_applied().values())
    print(f"   applied-count histogram: {dict(counts)}")
    assert set(counts) <= {1}, "a commit applied twice (or never)!"
    print("   every committed request applied exactly once")

    router.stop()


if __name__ == "__main__":
    main()
