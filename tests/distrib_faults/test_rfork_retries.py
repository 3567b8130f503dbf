"""RemoteFork under an unreliable link: retries, dedup, local fallback."""

import pytest

from repro.analysis.calibration import NetworkProfile
from repro.distrib.retry import RetryPolicy
from repro.errors import RetriesExhausted

from netmodel.faults import NetFaultKind, NetFaultPlan
from netmodel.netsim import SimulatedLink
from netmodel.rfork import RemoteFork

FAST = NetworkProfile("fast", latency_s=0.001, bandwidth_bytes_s=1e8)


def _double(state):
    return state["x"] * 2


def make_rfork(rates, seed=0, **kwargs):
    plan = NetFaultPlan(seed=seed, rates=rates)
    link = SimulatedLink(FAST, fault_plan=plan, seed=seed)
    return RemoteFork(link=link, **kwargs)


class TestCommitUnderLoss:
    @pytest.mark.parametrize("seed", range(12))
    def test_every_seed_commits_at_thirty_percent_drop(self, seed):
        # acceptance: at a 30% transfer-failure rate, execute() commits
        # the correct result for every seed — via retries or fallback —
        # and the path taken is recorded in BlockOutcome.extras.
        rfork = make_rfork({NetFaultKind.XFER_DROP: 0.3}, seed=seed)
        outcome = rfork.execute_block(_double, {"x": 21}, name=f"s{seed}")
        assert outcome.winner is not None
        assert outcome.winner.value == 42
        report = outcome.extras["rfork"]
        assert report["attempts"] >= 1
        assert report["fallback"] in (None, "local")
        # the faults list covers every failed attempt: all retried ones,
        # plus the final failure when the task fell back to local
        expected_faults = report["retries"] + (
            1 if report["fallback"] == "local" else 0
        )
        assert len(report["faults"]) == expected_faults

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_faults_still_commit(self, seed):
        rfork = make_rfork(
            {
                NetFaultKind.XFER_DROP: 0.2,
                NetFaultKind.XFER_CORRUPT: 0.2,
                NetFaultKind.XFER_DUP: 0.1,
            },
            seed=seed,
        )
        result, cost = rfork.execute(_double, {"x": 5})
        assert result == 10
        assert cost.attempts == rfork.last_report["attempts"]

    def test_corrupt_delivery_retried_never_unpickled(self):
        # every delivery corrupts; the CRC gate rejects them all and the
        # protocol exhausts, then falls back locally — no poisoned pickle
        rfork = make_rfork({NetFaultKind.XFER_CORRUPT: 1.0}, seed=0)
        result, _ = rfork.execute(_double, {"x": 3})
        assert result == 6
        assert rfork.last_report["fallback"] == "local"
        assert all(f == "CheckpointError" for f in rfork.last_report["faults"])


class TestIdempotency:
    def test_duplicate_delivery_applies_once(self):
        rfork = make_rfork({NetFaultKind.XFER_DUP: 1.0}, seed=0)
        result, _ = rfork.execute(_double, {"x": 8})
        assert result == 16
        assert rfork.duplicates_suppressed >= 1
        assert rfork.last_report["fallback"] is None

    def test_resend_of_applied_image_reuses_result(self):
        # at-least-once delivery: a retry whose earlier copy actually
        # landed must not re-run the task
        from netmodel.checkpoint import CheckpointImage

        rfork = make_rfork({}, seed=0)
        blob = CheckpointImage.capture(_double, {"x": 1}, "same").to_bytes()
        r1, _ = rfork._deliver_once(blob, "tok", 0)
        r2, _ = rfork._deliver_once(blob, "tok", 1)
        assert r1 == r2 == 2
        assert rfork.duplicates_suppressed == 1


class TestFallbackAndExhaustion:
    def test_dead_link_falls_back_local(self):
        rfork = make_rfork({NetFaultKind.XFER_DROP: 1.0}, seed=0)
        outcome = rfork.execute_block(_double, {"x": 50})
        assert outcome.winner.value == 100
        assert outcome.extras["rfork"]["fallback"] == "local"
        assert outcome.extras["rfork"]["retries"] == rfork.retry.max_retries

    def test_no_fallback_raises_retries_exhausted(self):
        rfork = make_rfork(
            {NetFaultKind.XFER_DROP: 1.0}, seed=0, fallback_local=False,
            retry=RetryPolicy(max_retries=2),
        )
        with pytest.raises(RetriesExhausted) as err:
            rfork.execute(_double, {"x": 1})
        assert err.value.attempts == 3
        outcome = rfork.execute_block(_double, {"x": 1})
        assert outcome.winner is None
        assert "error" in outcome.extras["rfork"]

    def test_remote_crash_site_retries_then_lands(self):
        plan = NetFaultPlan(seed=3, rates={NetFaultKind.REMOTE_CRASH: 0.5})
        link = SimulatedLink(FAST, fault_plan=plan, seed=3)
        rfork = RemoteFork(link=link, node_id=7)
        result, cost = rfork.execute(_double, {"x": 4})
        assert result == 8
        faults = rfork.last_report["faults"]
        assert all(f in ("RemoteNodeDown",) for f in faults)


class TestDeterminism:
    def run_once(self, seed):
        rfork = make_rfork(
            {NetFaultKind.XFER_DROP: 0.4, NetFaultKind.XFER_CORRUPT: 0.2}, seed=seed
        )
        result, cost = rfork.execute(_double, {"x": 9}, name="det")
        report = dict(rfork.last_report)
        return result, cost.attempts, report["faults"], report["backoff_s"]

    def test_same_seed_identical_retry_sequence(self):
        # acceptance: same seed => byte-identical fault-event and retry
        # sequences end to end
        assert self.run_once(17) == self.run_once(17)

    def test_backoff_is_deterministic_jitter(self):
        _, _, _, ba = self.run_once(17)
        _, _, _, bb = self.run_once(17)
        assert ba == bb
