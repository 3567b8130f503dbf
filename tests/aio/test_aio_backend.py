"""The asyncio backend: winner commit, cancellation-as-elimination,
timeout, the asyncio fault site, journal exactly-once, obs spans, and
both entry points (sync registry surface and coroutine-native)."""

import asyncio
import threading
import time

import pytest

from repro.aio import alt_block_async, run_alternatives_async
from repro.core.alternative import Alternative, Guard
from repro.core.policy import EliminationPolicy
from repro.core.worlds import run_alternatives
from repro.errors import SpawnError, WorldsError
from repro.faults.plan import FaultKind, FaultPlan
from repro.journal import CommitJournal, find_block_win
from repro.obs import Observability


def _fast(ws):
    ws["by"] = "fast"
    return "fast"


async def _slow_coro(ws):
    await asyncio.sleep(0.3)
    ws["by"] = "slow"
    return "slow"


def _boom(ws):
    raise RuntimeError("boom")


class TestWinnerCommit:
    def test_sync_bodies_first_winner_commits(self):
        out = run_alternatives([_fast, _slow_coro], backend="async")
        assert out.value == "fast"
        assert out.winner.name == "_fast"
        assert out.extras["state"]["by"] == "fast"

    def test_coroutine_function_alternatives(self):
        async def quick(ws):
            await asyncio.sleep(0.005)
            ws["by"] = "quick"
            return "quick"

        out = run_alternatives([quick, _slow_coro], backend="async")
        assert out.value == "quick"
        assert out.extras["state"]["by"] == "quick"

    def test_callable_returning_awaitable(self):
        # lambda ws: asyncio.sleep(...) — a sync callable whose value is
        # awaitable must be awaited, not committed as a coroutine object
        out = run_alternatives(
            [lambda ws: asyncio.sleep(0.005, result="slept")],
            backend="async",
        )
        assert out.value == "slept"

    def test_loser_workspace_mutations_do_not_leak(self):
        def tainted(ws):
            ws["by"] = "tainted"
            raise RuntimeError("after the write")

        out = run_alternatives([tainted, _fast], backend="async")
        assert out.value == "fast"
        assert out.extras["state"]["by"] == "fast"

    def test_initial_state_is_not_mutated(self):
        initial = {"n": 1}
        out = run_alternatives(
            [lambda ws: ws.__setitem__("n", 99)], initial, backend="async"
        )
        assert initial == {"n": 1}
        assert out.extras["state"]["n"] == 99

    def test_all_fail_block_fails(self):
        out = run_alternatives([_boom, _boom], backend="async")
        assert out.failed and out.winner is None
        assert len(out.losers) == 2


class TestElimination:
    def test_losers_labelled_eliminated(self):
        out = run_alternatives([_fast, _slow_coro], backend="async")
        (loser,) = out.losers
        assert loser.error == "eliminated"
        assert not loser.guard_failed
        assert out.extras["eliminated"] == 1
        assert out.extras["elimination_policy"] == "async"

    def test_synchronous_elimination_reaps_before_return(self):
        # under SYNCHRONOUS no loser may still be executing when the
        # parent resumes: the flag a cancelled loser would have set
        # after its sleep must never appear
        flags = {}

        async def lingering(ws):
            await asyncio.sleep(0.5)
            flags["survived"] = True
            return "late"

        out = run_alternatives(
            [_fast, lingering], backend="async",
            elimination=EliminationPolicy.SYNCHRONOUS,
        )
        assert out.value == "fast"
        assert out.extras["uncollected"] == 0
        assert "survived" not in flags
        assert out.extras["elimination_policy"] == "sync"

    def test_guard_rejection_paths(self):
        entry = Alternative(
            _fast, guard=Guard(name="no-entry", check=lambda s: False),
            name="rejected-entry",
        )
        result = Alternative(
            lambda ws: "bad",
            guard=Guard(name="no-result", accept=lambda s, r: False),
            name="rejected-result",
        )
        winner = Alternative(
            lambda ws: "ok", name="winner", start_delay=0.05
        )
        out = run_alternatives([entry, result, winner], backend="async")
        assert out.value == "ok"
        by_name = {l.name: l for l in out.losers}
        assert by_name["rejected-entry"].guard_failed
        assert "rejected entry" in by_name["rejected-entry"].error
        assert by_name["rejected-result"].guard_failed
        assert "rejected result" in by_name["rejected-result"].error


class TestTimeout:
    def test_block_timeout_no_winner(self):
        out = run_alternatives([_slow_coro], timeout=0.05, backend="async")
        assert out.winner is None
        assert out.timed_out
        (loser,) = out.losers
        assert loser.error == "timeout-killed"

    def test_fast_winner_beats_timeout(self):
        out = run_alternatives(
            [_fast, _slow_coro], timeout=5.0, backend="async"
        )
        assert out.value == "fast"
        assert not out.timed_out


class TestEntryPoints:
    def test_sync_entry_refuses_nested_loop(self):
        async def nested():
            with pytest.raises(WorldsError, match="alt_block_async"):
                run_alternatives_async([_fast])
            return True

        assert asyncio.run(nested())

    def test_alt_block_async_inside_host_loop(self):
        async def host():
            out = await alt_block_async([_fast, _slow_coro])
            return out

        out = asyncio.run(host())
        assert out.value == "fast"
        assert out.extras["eliminated"] == 1

    def test_registry_dispatch_matches_direct_call(self):
        via_registry = run_alternatives([_fast], backend="async")
        direct = run_alternatives_async([_fast])
        assert via_registry.value == direct.value == "fast"

    def test_sync_entry_usable_from_worker_thread(self):
        # the serve layer runs blocks on worker threads; each call owns
        # a private loop so threads must not collide
        results = []

        def work():
            results.append(run_alternatives_async([_fast]).value)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == ["fast"] * 4


class TestJournalExactlyOnce:
    def test_win_journaled_once(self):
        j = CommitJournal()
        out = run_alternatives(
            [_fast, _slow_coro], backend="async", block_id=7, journal=j
        )
        assert out.value == "fast"
        hit = find_block_win(j, 7)
        assert hit is not None and hit["value"] == "fast"
        blocks = [
            r for r in j.records() if r["t"] == "intent" and r["kind"] == "block"
        ]
        assert len(blocks) == 1
        assert j.status(blocks[0]["seq"]) == "applied"

    def test_failed_block_records_nothing(self):
        j = CommitJournal()
        out = run_alternatives([_boom], backend="async", block_id=7, journal=j)
        assert out.winner is None
        assert find_block_win(j, 7) is None

    def test_supervisor_replays_async_win(self):
        from repro.faults import Supervisor

        j = CommitJournal()
        first = Supervisor(max_retries=0, block_id=21, journal=j).run(
            [_fast], backend="async"
        )
        assert first.value == "fast"
        # restart over the same journal: the block must not re-run
        second = Supervisor(max_retries=0, block_id=21, journal=j).run(
            [_boom], backend="async"
        )
        assert second.value == "fast"
        assert second.extras["journal_recovered"] is True


class TestObservability:
    def test_block_span_and_counter(self):
        obs = Observability()
        out = run_alternatives([_fast, _slow_coro], backend="async", obs=obs)
        assert out.value == "fast"
        blocks = [s for s in obs.tracer.spans if s.cat == "alt-block"]
        assert len(blocks) == 1 and blocks[0].attrs["backend"] == "async"
        assert obs.registry.get("mw_backend_blocks_total").value(
            backend="async", result="committed"
        ) == 1

    def test_eliminated_loser_disposition(self):
        obs = Observability()
        run_alternatives([_fast, _slow_coro], backend="async", obs=obs)
        children = {s.name: s for s in obs.tracer.spans if s.cat == "child"}
        assert children["_slow_coro"].disposition == "eliminated"
        assert children["_fast"].disposition == "committed"


class TestFaultSite:
    def test_slow_task_delays_but_does_not_kill(self):
        plan = FaultPlan(
            seed=0, rates={FaultKind.SLOW_TASK: 1.0}, slow_task_s=0.05
        )
        t0 = time.perf_counter()
        out = run_alternatives([_fast], backend="async", fault_plan=plan)
        assert out.value == "fast"
        assert time.perf_counter() - t0 >= 0.05
        assert any(
            f["kind"] == "slow-task" for f in out.extras["injected_faults"]
        )

    def test_cancel_ignored_loser_still_converges(self):
        # the loser swallows its first cancellation and lingers; bounded
        # synchronous reaping must still collect it (grace >> linger)
        plan = FaultPlan(
            seed=0, rates={FaultKind.CANCEL_IGNORED: 1.0}, cancel_ignore_s=0.1
        )
        out = run_alternatives(
            [_fast, _slow_coro], backend="async", fault_plan=plan,
            elimination=EliminationPolicy.SYNCHRONOUS,
        )
        assert out.value == "fast"
        assert out.extras["uncollected"] == 0

    def test_loop_stall_delays_every_sibling(self):
        # a synchronous stall in any task blocks the shared loop, so
        # even the winner cannot commit before the stall has run
        plan = FaultPlan(
            seed=0, rates={FaultKind.LOOP_STALL: 1.0}, loop_stall_s=0.05
        )
        t0 = time.perf_counter()
        out = run_alternatives([_fast, _fast], backend="async", fault_plan=plan)
        assert out.value == "fast"
        assert time.perf_counter() - t0 >= 0.05

    def test_child_crash_fault_applies(self):
        plan = FaultPlan.crashes(seed=0, rate=1.0)
        out = run_alternatives([_fast], backend="async", fault_plan=plan)
        assert out.failed
        (loser,) = out.losers
        assert "injected crash-before-report" in loser.error

    def test_spawn_fault_raises_spawn_error(self):
        plan = FaultPlan(seed=0, rates={FaultKind.SPAWN_FAIL: 1.0})
        with pytest.raises(SpawnError, match="task-creation"):
            run_alternatives([_fast], backend="async", fault_plan=plan)

    def test_determinism_same_seed_same_schedule(self):
        def once():
            plan = FaultPlan.crashes(seed=3, rate=0.5)
            out = run_alternatives(
                [_fast, _fast, _fast], backend="async", fault_plan=plan
            )
            return sorted(f["index"] for f in out.extras["injected_faults"])

        assert once() == once()


class TestSupervisorDegradation:
    def test_async_degrades_through_thread_to_sequential(self):
        from repro.faults import Supervisor

        plan = FaultPlan(seed=0, rates={FaultKind.SPAWN_FAIL: 1.0})
        out = Supervisor(fault_plan=plan).run(
            [lambda ws: 42], backend="async"
        )
        assert out.value == 42
        assert [d["backend"] for d in out.extras["degraded"]] == [
            "async", "thread"
        ]
        assert out.extras["backend"] == "sequential"

    def test_async_fallback_chain_order(self):
        from repro.faults import ASYNC_FALLBACK, Supervisor

        assert ASYNC_FALLBACK == ("async", "thread", "sequential")
        assert Supervisor()._chain_from("async") == ASYNC_FALLBACK
