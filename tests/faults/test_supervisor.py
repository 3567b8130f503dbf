"""Supervisor: retry spares, backend degradation, watchdog wiring,
and the determinism guarantee for supervised outcomes."""

import os
import time

import pytest

from repro.apps.recovery import RecoveryBlock
from repro.core.alternative import Alternative
from repro.core.policy import WatchdogPolicy
from repro.errors import SpawnError
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.supervisor import DEFAULT_FALLBACK, Supervisor, run_supervised

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _worker(seconds, label, value):
    def alt(ws):
        time.sleep(seconds)
        ws["by"] = label
        return value

    alt.__name__ = label
    return alt


def _block():
    """Three alternatives with well-separated finish times (so the
    winner among survivors is deterministic) all computing the right
    answer."""
    return [
        _worker(0.01, "a0", 42),
        _worker(0.06, "a1", 42),
        _worker(0.12, "a2", 42),
    ]


def _structure(outcome):
    """The seed-determined shape of a supervised outcome."""
    sup = outcome.extras["supervisor"]
    return {
        "winner": outcome.winner.name if outcome.winner else None,
        "attempts": sup["attempts"],
        "history": [
            (h["attempt"], h["backend"], h["winner"], sorted(h["losers"]))
            for h in sup["history"]
        ],
        "degraded": [d["backend"] for d in outcome.extras.get("degraded", [])],
    }


class TestRetrySpares:
    def test_retry_recovers_after_total_first_wave_crash(self):
        # seed 1, rate 0.6: attempt 0 crashes all three; attempt 1
        # crashes only wave index 0, so a1 (faster than a2) wins
        plan = FaultPlan.crashes(seed=1, rate=0.6)
        assert all(d.fires for _, _, d in plan.schedule(0, 3))
        sup = Supervisor(max_retries=2, backoff_s=0.005, fault_plan=plan)
        out = sup.run(_block(), backend="fork")
        assert out.value == 42
        assert out.winner.name == "a1"
        assert out.winner.index == 1  # mapped back to the caller's position
        assert out.attempts == 2
        history = out.extras["supervisor"]["history"]
        assert history[0]["winner"] is None and len(history[0]["losers"]) == 3
        assert history[1]["winner"] == "a1"

    def test_thirty_percent_crash_rate_always_commits(self):
        """Acceptance criterion: under a 30% child-crash rate a
        supervised block commits the correct winner, for every seed."""
        for seed in range(8):
            plan = FaultPlan.crashes(seed=seed, rate=0.3)
            out = run_supervised(
                _block(),
                supervisor=Supervisor(
                    max_retries=3, backoff_s=0.005, fault_plan=plan
                ),
            )
            assert out.winner is not None, f"seed {seed} failed to commit"
            assert out.value == 42
            assert out.extras["state"]["by"] == out.winner.name

    def test_zero_retries_disables_respawn(self):
        plan = FaultPlan.crashes(seed=1, rate=0.6)  # first wave all crash
        out = Supervisor(max_retries=0, fault_plan=plan).run(_block())
        assert out.failed
        assert out.attempts == 1

    def test_spare_stagger_applied_to_retry_waves(self):
        plan = FaultPlan.crashes(seed=1, rate=0.6)
        sup = Supervisor(
            max_retries=2, backoff_s=0.0, spare_stagger_s=0.05, fault_plan=plan
        )
        out = sup.run(_block())
        # wave 2's winner (wave index 1) started one stagger late on top
        # of its own runtime
        assert out.value == 42
        assert out.extras["supervisor"]["history"][1]["elapsed_s"] >= 0.05

    def test_timeout_budget_bounds_retries(self):
        plan = FaultPlan.crashes(seed=0, rate=1.0)  # nothing ever survives
        t0 = time.perf_counter()
        out = Supervisor(max_retries=50, backoff_s=0.05, fault_plan=plan).run(
            _block(), timeout=0.4
        )
        wall = time.perf_counter() - t0
        assert out.failed
        assert wall < 3.0
        assert out.attempts < 51

    def test_unsupervised_outcome_reports_one_attempt(self):
        from repro.core.worlds import run_alternatives

        out = run_alternatives(_block(), backend="fork")
        assert out.attempts == 1
        assert not out.degraded


class TestDeterminism:
    def test_outcome_structure_identical_across_runs(self):
        """Acceptance criterion: same seed, same winner/loser structure."""
        def once():
            plan = FaultPlan.crashes(seed=1, rate=0.6)
            sup = Supervisor(max_retries=2, backoff_s=0.005, fault_plan=plan)
            return _structure(sup.run(_block(), backend="fork"))

        first, second = once(), once()
        assert first == second
        assert first["winner"] == "a1" and first["attempts"] == 2

    def test_structure_changes_with_seed(self):
        def once(seed):
            plan = FaultPlan.crashes(seed=seed, rate=0.6)
            sup = Supervisor(max_retries=3, backoff_s=0.005, fault_plan=plan)
            return _structure(sup.run(_block(), backend="fork"))

        # seed 1: first wave wiped out; seed 9: first wave untouched
        assert once(1)["attempts"] == 2
        assert once(9)["attempts"] == 1


class TestDegradation:
    def test_fork_degrades_through_thread_to_sequential(self):
        plan = FaultPlan(seed=0, rates={FaultKind.SPAWN_FAIL: 1.0})
        out = Supervisor(fault_plan=plan).run(_block(), backend="fork")
        assert out.value == 42
        assert out.degraded
        assert [d["backend"] for d in out.extras["degraded"]] == ["fork", "thread"]
        assert out.extras["backend"] == "sequential"
        assert out.extras["sequential"] is True

    def test_degradation_starts_at_the_requested_rung(self):
        plan = FaultPlan(seed=0, rates={FaultKind.SPAWN_FAIL: 1.0})
        out = Supervisor(fault_plan=plan).run(_block(), backend="thread")
        assert out.value == 42
        assert [d["backend"] for d in out.extras["degraded"]] == ["thread"]
        assert out.extras["backend"] == "sequential"

    def test_exhausted_chain_raises(self, monkeypatch):
        # the last rung rolls no spawn faults of its own, so fail it by
        # hand: with nothing below it the error reaches the caller
        def cannot_spawn(*args, **kwargs):
            raise SpawnError("EAGAIN")

        monkeypatch.setattr("repro.faults.supervisor.run_alternatives", cannot_spawn)
        with pytest.raises(SpawnError):
            Supervisor().run(_block(), backend="sequential")

    def test_no_degradation_without_spawn_faults(self):
        out = Supervisor(fault_plan=FaultPlan.quiet()).run(_block())
        assert out.value == 42
        assert "degraded" not in out.extras
        assert out.extras["backend"] == "fork"

    def test_default_chain_order(self):
        assert DEFAULT_FALLBACK == ("fork", "thread", "sequential")
        assert Supervisor()._chain_from("thread") == ("thread", "sequential")
        assert Supervisor()._chain_from("sim") == ("sim",)


class TestWatchdogWiring:
    def test_supervisor_watchdog_reaps_injected_hangs(self):
        plan = FaultPlan(seed=0, rates={FaultKind.HANG: 1.0}, hang_s=30.0)
        sup = Supervisor(
            max_retries=0,
            watchdog=WatchdogPolicy(soft_deadline_s=0.15, term_grace_s=0.05),
            fault_plan=plan,
        )
        t0 = time.perf_counter()
        out = sup.run(_block(), backend="fork")
        wall = time.perf_counter() - t0
        assert wall < 5.0
        assert out.failed
        assert out.watchdog_events
        assert all(
            l.error == "killed by watchdog (soft deadline exceeded)"
            for l in out.losers
        )


class TestValidation:
    def test_negative_retries_rejected(self):
        from repro.errors import WorldsError

        with pytest.raises(WorldsError):
            Supervisor(max_retries=-1)
        with pytest.raises(WorldsError):
            Supervisor(backoff_s=-0.1)


class TestRecoveryBlockIntegration:
    def test_run_supervised_commits_under_crashes(self):
        def primary(ws):
            time.sleep(0.01)
            ws["result"] = 10
            return 10

        def backup(ws):
            time.sleep(0.05)
            ws["result"] = 10
            return 10

        block = RecoveryBlock(lambda ws, v: v == 10, primary, backup)
        plan = FaultPlan.crashes(seed=1, rate=0.6)
        res = block.run_supervised(
            {}, supervisor=Supervisor(max_retries=3, backoff_s=0.005, fault_plan=plan)
        )
        assert res.succeeded
        assert res.value == 10
        assert res.attempts[-1] == res.alternate
        assert res.outcome.attempts >= 2
