"""Tests for recovery blocks (sequential and Multiple Worlds modes)."""

import pytest

from apps.recovery import RecoveryBlock, RecoveryResult, flaky
from repro.errors import WorldsError


def sort_quick(ws):
    ws["data"] = sorted(ws["data"])
    return "quick"


def sort_backwards(ws):
    # a buggy primary: sorts descending (fails the acceptance test)
    ws["data"] = sorted(ws["data"], reverse=True)
    return "backwards"


def sort_crashes(ws):
    raise RuntimeError("segfault simulation")


def accept_sorted(ws, value):
    data = ws["data"]
    return all(data[i] <= data[i + 1] for i in range(len(data) - 1))


DATA = {"data": [3, 1, 2, 9, 5]}


def test_constructor_validations():
    with pytest.raises(WorldsError):
        RecoveryBlock("not callable", sort_quick)  # type: ignore[arg-type]
    with pytest.raises(WorldsError):
        RecoveryBlock(accept_sorted, "not callable")  # type: ignore[arg-type]


class TestSequential:
    def test_primary_accepted(self):
        block = RecoveryBlock(accept_sorted, sort_quick, sort_backwards)
        result = block.run_sequential(DATA)
        assert result.succeeded
        assert result.alternate == "sort_quick"
        assert result.state["data"] == [1, 2, 3, 5, 9]

    def test_fallback_on_bad_primary(self):
        block = RecoveryBlock(accept_sorted, sort_backwards, sort_quick)
        result = block.run_sequential(DATA)
        assert result.alternate == "sort_quick"
        assert result.attempts == ["sort_backwards", "sort_quick"]

    def test_fallback_on_crash(self):
        block = RecoveryBlock(accept_sorted, sort_crashes, sort_quick)
        result = block.run_sequential(DATA)
        assert result.alternate == "sort_quick"

    def test_state_restored_between_attempts(self):
        # the backwards sorter mutates its trial copy; the next alternate
        # must still see the ORIGINAL data
        seen = {}

        def spy_sort(ws):
            seen["data"] = list(ws["data"])
            ws["data"] = sorted(ws["data"])
            return "spy"

        block = RecoveryBlock(accept_sorted, sort_backwards, spy_sort)
        block.run_sequential(DATA)
        assert seen["data"] == DATA["data"]

    def test_all_fail(self):
        block = RecoveryBlock(accept_sorted, sort_backwards, sort_crashes)
        result = block.run_sequential(DATA)
        assert not result.succeeded
        assert result.attempts == ["sort_backwards", "sort_crashes"]

    def test_caller_state_never_mutated(self):
        original = {"data": [2, 1]}
        RecoveryBlock(accept_sorted, sort_quick).run_sequential(original)
        assert original["data"] == [2, 1]

    def test_fault_injection_counts_down(self):
        healed = flaky(sort_quick, failures_before_success=2)
        block = RecoveryBlock(accept_sorted, healed)
        assert not block.run_sequential(DATA).succeeded  # fault 1
        assert not block.run_sequential(DATA).succeeded  # fault 2
        assert block.run_sequential(DATA).succeeded  # healed


class TestParallel:
    @pytest.mark.parametrize("backend", ["thread", "fork", "sim"])
    def test_accepted_alternate_wins(self, backend):
        import os

        if backend == "fork" and not hasattr(os, "fork"):
            pytest.skip("needs fork")
        block = RecoveryBlock(accept_sorted, sort_backwards, sort_quick)
        kwargs = {}
        if backend == "sim":
            kwargs["sim_costs"] = [0.1, 0.5]
        result = block.run_parallel(DATA, backend=backend, **kwargs)
        assert result.succeeded
        assert result.alternate == "sort_quick"
        assert result.state["data"] == [1, 2, 3, 5, 9]

    def test_sim_backend_fastest_acceptable_wins(self):
        def slow_ok(ws):
            ws["data"] = sorted(ws["data"])
            return "slow"

        def fast_ok(ws):
            ws["data"] = sorted(ws["data"])
            return "fast"

        block = RecoveryBlock(accept_sorted, slow_ok, fast_ok)
        result = block.run_parallel(DATA, backend="sim", sim_costs=[2.0, 0.5])
        assert result.alternate == "fast_ok"

    def test_sim_response_time_tracks_fastest_not_sum(self):
        def mk(label):
            def alt(ws):
                ws["data"] = sorted(ws["data"])
                return label

            alt.__name__ = label
            return alt

        block = RecoveryBlock(accept_sorted, mk("a"), mk("b"), mk("c"))
        result = block.run_parallel(
            DATA, backend="sim", sim_costs=[5.0, 1.0, 3.0], cpus=3
        )
        assert result.outcome.elapsed_s == pytest.approx(1.0, rel=0.05)

    def test_parallel_all_fail(self):
        block = RecoveryBlock(accept_sorted, sort_backwards, sort_crashes)
        result = block.run_parallel(DATA, backend="thread")
        assert not result.succeeded
        assert len(result.attempts) == 2

    def test_acceptance_is_the_guard(self):
        # faster-but-wrong loses to slower-but-right in virtual time
        def wrong_fast(ws):
            ws["data"] = [9, 9, 1]
            return "wrong"

        def right_slow(ws):
            ws["data"] = sorted(ws["data"])
            return "right"

        block = RecoveryBlock(accept_sorted, wrong_fast, right_slow)
        result = block.run_parallel(DATA, backend="sim", sim_costs=[0.1, 1.0])
        assert result.alternate == "right_slow"
