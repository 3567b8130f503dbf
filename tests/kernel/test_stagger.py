"""Tests for staggered alternative spawning (start_delay)."""

import pytest

from apps.recovery import RecoveryBlock
from repro.core import Alternative, run_alternatives_sim
from repro.errors import WorldsError


def test_negative_delay_rejected():
    with pytest.raises(WorldsError):
        Alternative(lambda ws: 1, start_delay=-0.5)


def test_delayed_alternative_starts_late():
    fast_but_late = Alternative(
        lambda ws: "late", name="late", sim_cost=0.1, start_delay=2.0
    )
    slow_but_early = Alternative(
        lambda ws: "early", name="early", sim_cost=1.0
    )
    outcome, _ = run_alternatives_sim([fast_but_late, slow_but_early], cpus=2)
    # the early starter finishes at 1.0; the late one would finish at 2.1
    assert outcome.value == "early"
    assert outcome.elapsed_s == pytest.approx(1.0, rel=0.05)


def test_delayed_alternative_wins_when_still_fastest():
    late = Alternative(lambda ws: "late", name="late", sim_cost=0.1, start_delay=0.5)
    early = Alternative(lambda ws: "early", name="early", sim_cost=5.0)
    outcome, _ = run_alternatives_sim([late, early], cpus=2)
    assert outcome.value == "late"
    assert outcome.elapsed_s == pytest.approx(0.6, rel=0.05)


def test_staggered_spare_never_starts_when_primary_wins():
    primary = Alternative(lambda ws: "primary", name="primary", sim_cost=0.5)
    spare = Alternative(lambda ws: "spare", name="spare", sim_cost=0.5,
                        start_delay=5.0)
    outcome, kernel = run_alternatives_sim([primary, spare], cpus=2)
    assert outcome.value == "primary"
    util = kernel.utilization_report()
    # the spare consumed no CPU at all: it was eliminated while sleeping
    assert util.wasted_cpu_s == pytest.approx(0.0, abs=1e-9)


def test_stagger_delay_appears_in_trace():
    late = Alternative(lambda ws: 1, name="late", sim_cost=0.1, start_delay=1.0)
    _, kernel = run_alternatives_sim([late], trace=True)
    events = kernel.trace.of_kind("stagger")
    assert len(events) == 1
    assert events[0].info["delay"] == 1.0


def test_generator_alternative_with_delay():
    def gen_alt(ctx):
        t = yield ctx.now()
        yield ctx.compute(0.1)
        return t

    late = Alternative(gen_alt, name="late", start_delay=0.7)
    outcome, _ = run_alternatives_sim([late])
    # the program observed a start time at (or just after) its delay
    assert outcome.value == pytest.approx(0.7, abs=0.01)


class TestStaggeredRecovery:
    def _block(self):
        def primary(ws):
            if ws.get("inject_fault"):
                raise RuntimeError("fault")
            ws["x"] = "primary"
            return "primary"

        def spare(ws):
            ws["x"] = "spare"
            return "spare"

        return RecoveryBlock(lambda ws, v: True, primary, spare)

    def test_healthy_primary_wins_and_spare_costs_nothing(self):
        block = self._block()
        result = block.run_parallel(
            {}, backend="sim", sim_costs=[1.0, 1.0], stagger_s=2.0, cpus=2
        )
        assert result.alternate == "primary"
        assert result.outcome.elapsed_s == pytest.approx(1.0, rel=0.05)

    def test_faulty_primary_costs_one_stagger(self):
        block = self._block()
        result = block.run_parallel(
            {"inject_fault": True}, backend="sim",
            sim_costs=[1.0, 1.0], stagger_s=2.0, cpus=2,
        )
        assert result.alternate == "spare"
        # spare starts at 2.0 and runs 1.0
        assert result.outcome.elapsed_s == pytest.approx(3.0, rel=0.05)

    def test_zero_stagger_is_the_plain_race(self):
        block = self._block()
        result = block.run_parallel(
            {"inject_fault": True}, backend="sim",
            sim_costs=[1.0, 1.0], stagger_s=0.0, cpus=2,
        )
        assert result.outcome.elapsed_s == pytest.approx(1.0, rel=0.05)
