"""The asyncio backend's scale claim, at the size CI has always gated
it on: a world is a task, not a process, so one block can hold 10,000
of them in flight at once.
"""

import asyncio

from repro.aio import alt_block_async


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
