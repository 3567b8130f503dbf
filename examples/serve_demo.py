#!/usr/bin/env python3
"""The speculation service: two tenants contending for four world slots.

``run_alternatives`` assumes the caller owns the machine — fine for one
block, wrong for a shared service. ``repro.serve`` puts a governor in
front: a :class:`WorldBudget` caps the worlds alive at once, an
admission queue keeps tenants fair under backlog, and an adaptive policy
decides *how many* of each request's alternatives are worth speculating
on, given what the pool and the win-rate statistics look like right now.

Two tenants hammer the same 4-slot budget with a 3-alternative lookup
(one fast cache that usually hits, two slow fallbacks):

- ``batch`` submits a big burst of requests with no deadline;
- ``interactive`` submits fewer requests, each with a 250 ms deadline —
  one still waiting for a slot when it passes is shed, not run late.

Watch the ``k`` column: the service starts out speculating on all three
alternatives, then the statistics converge on the cache and K drops to
1 — the paper's "speculate only with spare capacity" rule, live.
"""

import time

from repro.serve import SpeculationService, WorldBudget


def cache_lookup(ws):
    time.sleep(0.004)
    ws["source"] = "cache"
    return f"hit:{ws['key']}"


def disk_lookup(ws):
    time.sleep(0.02)
    ws["source"] = "disk"
    return f"read:{ws['key']}"


def remote_lookup(ws):
    time.sleep(0.03)
    ws["source"] = "remote"
    return f"fetch:{ws['key']}"


ALTERNATIVES = [cache_lookup, disk_lookup, remote_lookup]


def main():
    budget = WorldBudget(4)
    with SpeculationService(budget, workers=4) as svc:
        tickets = []
        # the batch tenant floods; interactive arrives mid-burst with
        # a 250 ms deadline
        for i in range(12):
            tickets.append(
                ("batch", svc.submit(
                    "batch", ALTERNATIVES, initial={"key": f"b{i}"},
                )))
        for i in range(4):
            tickets.append(
                ("interactive", svc.submit(
                    "interactive", ALTERNATIVES, initial={"key": f"i{i}"},
                    deadline_s=0.25,
                )))

        print(f"{'tenant':>12}  {'status':>9}  {'k':>2}  {'reason':>9}  "
              f"{'wait ms':>8}  {'total ms':>8}  value")
        for tenant, ticket in tickets:
            r = ticket.result(timeout=30)
            print(f"{tenant:>12}  {r.status:>9}  {r.k:>2}  "
                  f"{r.policy_reason:>9}  {r.queue_wait_s * 1e3:>8.1f}  "
                  f"{r.latency_s * 1e3:>8.1f}  {r.value!r}")

    print(f"\nslots high-watermark: {budget.high_watermark} "
          f"(budget {budget.slots} — never exceeded)")
    snapshot = svc.policy.stats.snapshot()
    for name, rec in sorted(snapshot.items()):
        print(f"  {name:>15}: {rec['wins']}/{rec['attempts']} wins, "
              f"win-EWMA {rec['win_ewma']:.2f}, "
              f"latency-EWMA {rec['latency_ewma_s'] * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
