"""Alternative blocks in the simulation kernel: spawn, sync, eliminate.

Covers paper section 2.2: at-most-once synchronization, commit by page-map
replacement, guard placements, the failure alternative, timeouts, and
sync/async elimination.
"""

import pytest

from repro.core.alternative import Alternative, Guard, GuardPlacement
from repro.core.policy import EliminationPolicy
from repro.errors import KernelError
from repro.kernel import Kernel, ProcState, TIMEOUT


def K(**kw):
    kw.setdefault("cpus", 8)
    return Kernel(**kw)


def run_block(kernel, alternatives, timeout=None,
              elimination=EliminationPolicy.ASYNCHRONOUS, heap_init=None):
    box = {}

    def driver(ctx):
        out = yield from ctx.run_alternatives(alternatives, timeout, elimination)
        box["outcome"] = out
        box["state"] = yield ctx.snapshot()
        return out.value

    pid = kernel.spawn(driver, name="parent", heap_init=heap_init)
    kernel.run()
    return box["outcome"], box.get("state"), pid


def timed(label, seconds, value=None):
    """A generator alternative computing for `seconds` then returning."""

    def alt(ctx):
        yield ctx.compute(seconds)
        yield ctx.put("winner", label)
        return value if value is not None else label

    alt.__name__ = label
    return alt


class TestBasicBlocks:
    def test_fastest_alternative_wins(self):
        k = K()
        out, state, _ = run_block(k, [timed("slow", 3.0), timed("fast", 1.0)])
        assert out.value == "fast"
        assert out.winner_index == 1
        assert state["winner"] == "fast"

    def test_winner_state_committed_losers_state_gone(self):
        k = K()

        def fast(ctx):
            yield ctx.compute(0.5)
            yield ctx.put("result", "from-fast")
            yield ctx.put("fast-only", True)
            return "fast"

        def slow(ctx):
            yield ctx.put("slow-early-write", True)  # written before losing
            yield ctx.compute(5.0)
            return "slow"

        out, state, _ = run_block(k, [fast, slow], heap_init={"result": None})
        assert state["result"] == "from-fast"
        assert state["fast-only"] is True
        assert "slow-early-write" not in state

    def test_at_most_once_single_winner(self):
        k = K()
        out, _, _ = run_block(k, [timed(f"alt{i}", 1.0 + 0.01 * i) for i in range(6)])
        committed = [c for c in out.children if c.status == "committed"]
        assert len(committed) == 1
        assert out.winner_index == 0

    def test_children_records_complete(self):
        k = K()
        out, _, _ = run_block(k, [timed("a", 1.0), timed("b", 2.0), timed("c", 3.0)])
        assert len(out.children) == 3
        statuses = {c.name: c.status for c in out.children}
        assert statuses["a"] == "committed"
        assert statuses["b"] == "eliminated"
        assert statuses["c"] == "eliminated"

    def test_elapsed_close_to_best_plus_overhead(self):
        k = K()
        out, _, _ = run_block(k, [timed("fast", 1.0), timed("slow", 10.0)])
        assert out.elapsed_s == pytest.approx(1.0, rel=0.01)

    def test_single_alternative_block(self):
        k = K()
        out, _, _ = run_block(k, [timed("only", 0.5)])
        assert out.value == "only"


class TestFailureAndTimeout:
    def test_all_aborted_selects_failure(self):
        k = K()

        def bad1(ctx):
            yield ctx.compute(0.1)
            yield ctx.abort("no good")

        def bad2(ctx):
            yield ctx.compute(0.2)
            raise ValueError("broken")

        out, _, _ = run_block(k, [bad1, bad2])
        assert out.failed
        assert out.winner_index is None
        assert not out.timed_out
        assert {c.status for c in out.children} == {"aborted"}

    def test_timeout_kills_children_and_fails(self):
        k = K()
        out, _, _ = run_block(k, [timed("slow1", 100.0), timed("slow2", 200.0)],
                              timeout=1.0)
        assert out.timed_out
        assert out.value is TIMEOUT
        assert {c.status for c in out.children} == {"timeout-killed"}
        assert all(not w.alive or w.name == "parent"
                   for w in k.worlds.values())

    def test_fast_success_beats_timeout(self):
        k = K()
        out, _, _ = run_block(k, [timed("quick", 0.5)], timeout=10.0)
        assert not out.timed_out
        assert out.value == "quick"

    def test_one_failure_does_not_fail_block(self):
        k = K()

        def bad(ctx):
            yield ctx.abort("nope")

        out, _, _ = run_block(k, [bad, timed("good", 1.0)])
        assert out.value == "good"
        statuses = {c.name: c.status for c in out.children}
        assert statuses["bad"] == "aborted"

    def test_infinite_loop_alternative_tolerated(self):
        # Scheme B is frustrated by infinite loops; Scheme C is not.
        k = K()

        def diverges(ctx):
            while True:
                yield ctx.compute(1.0)

        out, _, _ = run_block(k, [diverges, timed("finite", 2.0)])
        assert out.value == "finite"


class TestGuards:
    def test_guard_in_child_entry_rejects(self):
        k = K()
        alt_ok = Alternative(timed("ok", 1.0))
        alt_guarded = Alternative(
            timed("guarded", 0.1),
            guard=Guard(name="never", check=lambda s: False),
        )
        out, _, _ = run_block(k, [alt_guarded, alt_ok])
        assert out.value == "ok"
        statuses = {c.name: c.status for c in out.children}
        assert statuses["guarded"] == "guard-rejected"

    def test_guard_before_spawn_skips_spawn(self):
        k = K()
        alt_ok = Alternative(timed("ok", 1.0))
        alt_guarded = Alternative(
            timed("guarded", 0.1),
            guard=Guard(
                name="pre", check=lambda s: False,
                placement=GuardPlacement.BEFORE_SPAWN,
            ),
        )
        out, _, _ = run_block(k, [alt_guarded, alt_ok])
        assert out.value == "ok"
        statuses = {c.name: c.status for c in out.children}
        assert statuses["guarded"] == "guard-rejected"

    def test_guard_at_sync_rejects_result(self):
        k = K()
        alt_fast_bad = Alternative(
            timed("fastbad", 0.5),
            guard=Guard(
                name="sync", accept=lambda s, v: v != "fastbad",
                placement=GuardPlacement.AT_SYNC,
            ),
        )
        alt_slow_ok = Alternative(timed("slowok", 2.0))
        out, _, _ = run_block(k, [alt_fast_bad, alt_slow_ok])
        # the faster child reached sync first but its guard rejected it
        assert out.value == "slowok"

    def test_all_guards_rejected_before_spawn_fails_block(self):
        k = K()
        alts = [
            Alternative(
                timed(f"g{i}", 0.1),
                guard=Guard(check=lambda s: False, placement=GuardPlacement.BEFORE_SPAWN),
            )
            for i in range(3)
        ]
        out, _, _ = run_block(k, alts)
        assert out.failed

    def test_guard_sees_heap_state(self):
        k = K()
        alt = Alternative(
            timed("picky", 0.5),
            guard=Guard(name="wants-flag", check=lambda s: s.get("flag") == "yes"),
        )
        out, _, _ = run_block(k, [alt], heap_init={"flag": "yes"})
        assert out.value == "picky"


class TestPlainCallableAlternatives:
    def test_plain_fn_runs_against_workspace(self):
        k = K()

        def double(ws):
            ws["x"] = ws["x"] * 2
            return ws["x"]

        out, state, _ = run_block(
            k, [Alternative(double, sim_cost=1.0)], heap_init={"x": 21}
        )
        assert out.value == 42
        assert state["x"] == 42

    def test_plain_fn_cost_callable(self):
        k = K()

        def work(ws):
            return "done"

        alt = Alternative(work, sim_cost=lambda ws: ws["n"] * 0.1)
        out, _, _ = run_block(k, [alt], heap_init={"n": 20})
        assert out.elapsed_s == pytest.approx(2.0, rel=0.05)

    def test_plain_fn_exception_aborts(self):
        k = K()

        def boom(ws):
            raise RuntimeError("bad")

        def ok(ws):
            return "ok"

        out, _, _ = run_block(
            k, [Alternative(boom, sim_cost=0.1), Alternative(ok, sim_cost=1.0)]
        )
        assert out.value == "ok"

    def test_plain_fn_key_deletion_propagates(self):
        k = K()

        def remover(ws):
            del ws["victim"]
            return "removed"

        out, state, _ = run_block(
            k, [Alternative(remover, sim_cost=0.1)],
            heap_init={"victim": 1, "keeper": 2},
        )
        assert "victim" not in state
        assert state["keeper"] == 2

    def test_plain_guard_checked_in_wrapper(self):
        k = K()

        def never_valid(ws):
            return "should not win"

        alt = Alternative(
            never_valid,
            sim_cost=0.1,
            guard=Guard(accept=lambda s, v: False),
        )
        ok = Alternative(lambda ws: "ok", sim_cost=1.0, name="ok")
        out, _, _ = run_block(k, [alt, ok])
        assert out.value == "ok"


class TestParentDiscipline:
    def test_parent_heap_write_between_spawn_and_wait_rejected(self):
        k = K()

        def driver(ctx):
            yield ctx.alt_spawn([timed("a", 1.0)])
            try:
                yield ctx.put("illegal", 1)
            except KernelError:
                out = yield ctx.alt_wait()
                return ("caught", out.value)

        pid = k.spawn(driver)
        k.run()
        assert k.result_of(pid) == ("caught", "a")

    def test_alt_wait_without_spawn_rejected(self):
        k = K()

        def driver(ctx):
            try:
                yield ctx.alt_wait()
            except KernelError:
                return "caught"

        pid = k.spawn(driver)
        k.run()
        assert k.result_of(pid) == "caught"

    def test_double_spawn_rejected(self):
        k = K()

        def driver(ctx):
            yield ctx.alt_spawn([timed("a", 1.0)])
            try:
                yield ctx.alt_spawn([timed("b", 1.0)])
            except KernelError:
                out = yield ctx.alt_wait()
                return ("caught", out.value)

        pid = k.spawn(driver)
        k.run()
        assert k.result_of(pid) == ("caught", "a")


class TestNesting:
    def test_nested_blocks_commit_through_levels(self):
        k = K()

        def inner_fast(ctx):
            yield ctx.compute(0.2)
            yield ctx.put("inner", "fast")
            return "inner-fast"

        def inner_slow(ctx):
            yield ctx.compute(5.0)
            return "inner-slow"

        def outer_nested(ctx):
            out = yield from ctx.run_alternatives([inner_fast, inner_slow])
            yield ctx.put("outer", out.value)
            return f"outer({out.value})"

        def outer_plain(ctx):
            yield ctx.compute(10.0)
            return "outer-plain"

        box = {}

        def driver(ctx):
            out = yield from ctx.run_alternatives([outer_nested, outer_plain])
            box["state"] = yield ctx.snapshot()
            return out.value

        pid = k.spawn(driver)
        k.run()
        assert k.result_of(pid) == "outer(inner-fast)"
        assert box["state"]["inner"] == "fast"
        assert box["state"]["outer"] == "inner-fast"

    def test_losing_outer_kills_inner_descendants(self):
        k = K()

        def grandchild(ctx):
            yield ctx.compute(50.0)
            return "gc"

        def outer_loser(ctx):
            out = yield from ctx.run_alternatives([grandchild])
            return out.value

        def outer_winner(ctx):
            yield ctx.compute(0.5)
            return "winner"

        out, _, _ = run_block(k, [outer_loser, outer_winner])
        assert out.value == "winner"
        # nothing except the parent survived
        for w in k.worlds.values():
            if w.name != "parent":
                assert not w.alive


class TestElimination:
    def test_sync_elimination_delays_parent(self):
        profile_kwargs = dict(cpus=8)
        k_sync = Kernel(**profile_kwargs)
        out_s, _, _ = run_block(
            k_sync,
            [timed(f"a{i}", 1.0 + i) for i in range(8)],
            elimination=EliminationPolicy.SYNCHRONOUS,
        )
        k_async = Kernel(**profile_kwargs)
        out_a, _, _ = run_block(
            k_async,
            [timed(f"a{i}", 1.0 + i) for i in range(8)],
            elimination=EliminationPolicy.ASYNCHRONOUS,
        )
        # async gives strictly better response time (paper section 2.2.1)
        assert out_a.response_s < out_s.response_s
        sync_extra = out_s.response_s - out_a.response_s
        expected = k_sync.profile.kill_sync_s * 7
        assert sync_extra == pytest.approx(expected, rel=0.2)

    def test_async_elimination_spawns_reaper(self):
        k = K()
        run_block(
            k, [timed("a", 1.0), timed("b", 2.0)],
            elimination=EliminationPolicy.ASYNCHRONOUS,
        )
        reapers = [w for w in k.worlds.values() if w.name.startswith("reaper")]
        assert len(reapers) == 1
        assert reapers[0].state is ProcState.DONE

    def test_elimination_cost_recorded_as_completion_overhead(self):
        k = K()
        out, _, _ = run_block(
            k, [timed(f"a{i}", 1.0 + i) for i in range(4)],
            elimination=EliminationPolicy.SYNCHRONOUS,
        )
        assert out.overhead.completion_s == pytest.approx(
            k.profile.kill_sync_s * 3
        )

    def test_setup_overhead_scales_with_alternatives(self):
        k1 = K()
        out1, _, _ = run_block(k1, [timed("a", 1.0)], heap_init={"d": bytes(10000)})
        k2 = K()
        out2, _, _ = run_block(
            k2, [timed("a", 1.0), timed("b", 1.5), timed("c", 2.0)],
            heap_init={"d": bytes(10000)},
        )
        assert out2.overhead.setup_s == pytest.approx(3 * out1.overhead.setup_s)


class TestMemoryHygiene:
    def test_loser_pages_are_reclaimed(self):
        k = K()

        def writer(ctx, label, amount, cost):
            def alt(c):
                yield c.compute(cost)
                yield c.put(f"data-{label}", bytes(amount))
                yield c.compute(cost)
                return label
            alt.__name__ = label
            return alt

        def fast(ctx):
            yield ctx.compute(0.1)
            return "fast"

        def slow(ctx):
            yield ctx.put("big", bytes(100_000))
            yield ctx.compute(10.0)
            return "slow"

        out, _, _ = run_block(k, [fast, slow], heap_init={"base": bytes(1000)})
        assert out.value == "fast"
        # the loser's 100k of private pages must be freed; remaining live
        # frames are the parent's committed state only
        live_bytes = k.pool.live_frames * k.profile.page_size
        assert live_bytes < 50_000
