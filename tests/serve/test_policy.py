"""AlternativeStats and the adaptive speculation policy."""

import pytest

from repro.core.outcome import AlternativeResult, BlockOutcome
from repro.errors import ServeError
from repro.obs import Observability
from repro.serve import (
    AdaptiveSpeculationPolicy,
    AlternativeStats,
    FixedSpeculationPolicy,
)
from repro.serve import policy as policy_module
from repro.serve import stats as stats_module
from repro.serve.stats import _MAX_TRACKED, PRIOR_WIN


def outcome(winner_name, winner_idx=0, losers=()):
    return BlockOutcome(
        winner=AlternativeResult(
            index=winner_idx, name=winner_name, value=1, succeeded=True,
            elapsed_s=0.01,
        ),
        elapsed_s=0.01,
        losers=[
            AlternativeResult(index=i, name=n, error="lost", elapsed_s=0.02)
            for i, n in losers
        ],
    )


# -- stats ----------------------------------------------------------------
def test_stats_track_wins_and_latency(monkeypatch):
    monkeypatch.setattr(stats_module, "ALPHA", 0.5)
    s = AlternativeStats()
    s.observe("a", won=True, latency_s=0.1)
    s.observe("a", won=True, latency_s=0.2)
    s.observe("a", won=False, latency_s=0.3)
    rec = s.record("a")
    assert rec.attempts == 3
    assert rec.wins == 2
    assert 0.0 < rec.win_ewma < 1.0
    assert 0.1 < rec.latency_ewma_s < 0.3


def test_stats_observe_outcome_feeds_winner_and_losers():
    s = AlternativeStats()
    s.observe_outcome(outcome("fast", 0, losers=[(1, "slow")]))
    assert s.record("fast").wins == 1
    assert s.record("slow").wins == 0
    assert s.record("slow").attempts == 1


def test_abandoned_launches_are_charged_losses():
    # asynchronous elimination abandons still-running losers without a
    # loser entry; launched-but-unreported names must not stay "unseen"
    s = AlternativeStats()
    s.observe_outcome(outcome("fast"), launched=["fast", "slow"])
    rec = s.record("slow")
    assert rec is not None
    assert rec.attempts == 1 and rec.wins == 0
    assert rec.latency_ewma_s == pytest.approx(0.01)  # at least the winner's
    assert s.score("fast") > s.score("slow")


def test_unseen_alternatives_score_optimistically():
    s = AlternativeStats()
    s.observe("seen", won=True, latency_s=0.01)
    assert s.score("never-run") > s.score("seen")


def test_stats_obs_metrics_mirror():
    obs = Observability()
    s = AlternativeStats(obs=obs)
    s.observe("a", won=True, latency_s=0.05)
    assert obs.registry.get("mw_serve_alt_attempts_total").value(alt="a") == 1.0
    assert obs.registry.get("mw_serve_alt_wins_total").value(alt="a") == 1.0
    assert obs.registry.get("mw_serve_alt_latency_seconds").count(alt="a") == 1


def test_stats_are_capped_with_least_recently_observed_eviction(monkeypatch):
    # tenants that name alternatives per request must not grow the table
    # (or the process) forever; a name that keeps being observed stays
    monkeypatch.setattr(stats_module, "ALPHA", 0.5)
    s = AlternativeStats()
    reference = AlternativeStats()
    for i in range(50_000):
        s.observe(f"op{i}.pos", won=bool(i % 2), latency_s=0.01)
        if i % (_MAX_TRACKED // 2) == 0:
            s.observe("steady", won=True, latency_s=0.02)
            reference.observe("steady", won=True, latency_s=0.02)
    known = s.known()
    assert len(known) == _MAX_TRACKED
    assert "steady" in known and "op49999.pos" in known
    assert s.record("steady") == reference.record("steady")
    # evicted == never seen: the optimistic prior, nothing else
    assert s.record("op0.pos") is None
    assert s.win_ewma("op0.pos") == PRIOR_WIN
    assert s.score("op0.pos") == s.score("never-run")
    assert len(s.snapshot()) == _MAX_TRACKED
    assert not hasattr(s.record("steady"), "__dict__")  # slots


# -- adaptive policy -------------------------------------------------------
def test_idle_pool_speculates_wide():
    p = AdaptiveSpeculationPolicy()
    d = p.decide(["a", "b", "c"], granted=3, load=0.0)
    assert d.k == 3
    assert d.staggers == [0.0, 0.0, 0.0]  # idle: launch everything at once
    assert d.reason == "adaptive"


def test_k_capped_by_granted_slots():
    p = AdaptiveSpeculationPolicy()
    d = p.decide(["a", "b", "c", "d"], granted=2, load=0.0)
    assert d.k == 2


def test_confident_winner_runs_alone():
    p = AdaptiveSpeculationPolicy()
    for _ in range(10):  # EWMA from the 0.5 prior needs ~8 wins to clear 0.9
        p.observe(outcome("ace", 0, losers=[(1, "dud")]), ["ace", "dud"])
    d = p.decide(["ace", "dud"], granted=2, load=0.0)
    assert d.k == 1
    assert d.reason == "confident"
    assert d.order == [0]


def test_ranking_prefers_winning_fast_alternative():
    p = AdaptiveSpeculationPolicy()
    for _ in range(5):  # one slot: K=1 whatever the win EWMA
        p.observe(outcome("good", 1, losers=[(0, "bad")]), ["bad", "good"])
    d = p.decide(["bad", "good"], granted=1, load=0.0)
    assert d.order == [1]  # "good" ranked first despite caller order


def test_staggers_scale_with_load_and_latency():
    p = AdaptiveSpeculationPolicy()
    for _ in range(3):
        p.observe(outcome("a", 0, losers=[(1, "b")]), ["a", "b"])
    lat = p.stats.latency_ewma("a")
    d = p.decide(["a", "b"], granted=2, load=0.5)
    assert d.staggers[0] == 0.0
    assert d.staggers[1] == pytest.approx(0.5 * lat, rel=1e-6)


def test_stagger_clamped_to_bounds():
    p = AdaptiveSpeculationPolicy()
    # cold stats under load launch at once: no measured latency for the
    # favourite, so no granted slot is held idle on no evidence
    d = p.decide(["a", "b", "c"], granted=3, load=0.5)
    assert d.staggers == [0, 0, 0]
    # enormous observed latency -> the ceiling (both seen, "a" favourite)
    for _ in range(3):
        p.stats.observe("a", won=True, latency_s=100.0)
        p.stats.observe("b", won=False, latency_s=100.0)
    d = p.decide(["a", "b"], granted=2, load=0.5)
    assert d.order[0] == 0
    assert d.staggers[1] == pytest.approx(policy_module.MAX_STAGGER_S)


def test_zero_alternatives_rejected():
    p = AdaptiveSpeculationPolicy()
    with pytest.raises(ServeError):
        p.decide([], granted=1, load=0.0)


def test_k_never_exceeds_the_alternative_count():
    p = AdaptiveSpeculationPolicy()
    d = p.decide(["a", "b", "c"], granted=100, load=0.0)
    assert d.k == 3 and d.reason == "adaptive"


# -- fixed policy ----------------------------------------------------------
def test_fixed_policy_spawns_everything():
    p = FixedSpeculationPolicy()
    d = p.decide(["a", "b", "c"], granted=1, load=1.0)
    assert d.order == [0, 1, 2]
    assert d.staggers == [0.0, 0.0, 0.0]
    assert d.reason == "fixed"
    p.observe(outcome("a"))  # learns nothing, raises nothing
