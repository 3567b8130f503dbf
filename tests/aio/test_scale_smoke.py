"""The asyncio backend's two scale claims, at the sizes CI has always
gated them on: a world is a task, not a process, so one block can hold
10,000 of them in flight at once, and an I/O-bound request class can
afford to run every alternative instead of the few its grant covers.
"""

import asyncio
import random
import statistics
import time

from repro.aio import alt_block_async
from repro.core.worlds import run_alternatives
from repro.serve import AdaptiveSpeculationPolicy


def test_ten_thousand_worlds_in_flight_at_once():
    # nobody is released until the in-flight count reaches N, so the
    # block can only commit if all N worlds were alive simultaneously
    n = 10_000
    state = {"inflight": 0, "peak": 0}

    async def world(ws, release, i):
        state["inflight"] += 1
        state["peak"] = max(state["peak"], state["inflight"])
        if state["inflight"] >= n:
            release.set()
        await release.wait()
        state["inflight"] -= 1
        return i

    async def block():
        release = asyncio.Event()
        return await alt_block_async(
            [(lambda ws, i=i: world(ws, release, i)) for i in range(n)]
        )

    out = asyncio.run(block())
    assert out.winner is not None
    assert state["peak"] >= n


def test_wide_k_finds_the_fast_probe_grant_clamped_k_mostly_cannot():
    # exactly one of 16 probes is fast and its position shifts per
    # request: K clamped to a 4-slot grant launches it ~4/16 of the
    # time, the io class's wide-K opt-in launches all 16 every time
    n_alts, granted, requests, fast_s, slow_s = 16, 4, 10, 0.01, 0.1
    rng = random.Random(0)
    fast_positions = [rng.randrange(n_alts) for _ in range(requests)]
    names = [f"probe{i}" for i in range(n_alts)]

    def run_arm(policy, **class_kwargs):
        latencies, hits = [], 0
        for fast_at in fast_positions:
            decision = policy.decide(names, granted=granted, **class_kwargs)
            launched = [
                (lambda ws, i=i: asyncio.sleep(
                    fast_s if i == fast_at else slow_s, result=names[i]))
                for i in decision.order
            ]
            t0 = time.perf_counter()
            out = run_alternatives(launched, backend=decision.backend or "async")
            latencies.append(time.perf_counter() - t0)
            hits += out.value == names[fast_at]
        return statistics.median(latencies), hits / requests

    fixed_p50, _ = run_arm(AdaptiveSpeculationPolicy())
    wide_p50, wide_hit_rate = run_arm(
        AdaptiveSpeculationPolicy(class_max_k={"io-probe": n_alts}),
        request_class="io-probe",
    )
    assert wide_hit_rate == 1.0
    assert wide_p50 < fixed_p50, (wide_p50, fixed_p50)
