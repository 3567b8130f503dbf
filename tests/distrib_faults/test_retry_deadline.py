"""RetryPolicy.deadline_s: the total-time cap across a retry loop."""

import time

import pytest

from repro.distrib.retry import RetryPolicy, call_with_retries
from repro.errors import RetriesExhausted

from netmodel.faults import TransferDropped
from netmodel.netsim import NetworkProfile, SimulatedLink


def always_fail(attempt):
    raise TransferDropped(f"attempt {attempt} dropped")


class TestDeadlineCap:
    def test_deadline_cuts_attempts_short(self):
        # generous attempt budget, tiny deadline: the clock wins
        policy = RetryPolicy(
            max_retries=50, base_backoff_s=0.02, multiplier=2.0,
            max_backoff_s=0.5, jitter=0.0, deadline_s=0.1,
        )
        t0 = time.monotonic()
        with pytest.raises(RetriesExhausted) as info:
            call_with_retries(always_fail, policy=policy, token="cap")
        elapsed = time.monotonic() - t0
        assert info.value.attempts < 51, "deadline must beat the attempt cap"
        assert elapsed < 1.0
        assert "deadline" in str(info.value)
        # the recorded backoff never crosses the cap
        assert info.value.stats.backoff_s <= 0.1

    def test_attempts_win_when_deadline_is_generous(self):
        policy = RetryPolicy(
            max_retries=3, base_backoff_s=0.001, jitter=0.0, deadline_s=60.0,
        )
        with pytest.raises(RetriesExhausted) as info:
            call_with_retries(always_fail, policy=policy, token="slack")
        assert info.value.attempts == 4  # 1 + max_retries: attempts tripped
        assert "attempts" in str(info.value)

    def test_no_deadline_means_attempts_only(self):
        policy = RetryPolicy(max_retries=2, base_backoff_s=0.001, jitter=0.0)
        assert policy.deadline_s is None
        with pytest.raises(RetriesExhausted) as info:
            call_with_retries(always_fail, policy=policy)
        assert info.value.attempts == 3

    def test_success_before_deadline_unaffected(self):
        calls = []

        def third_time_lucky(attempt):
            calls.append(attempt)
            if attempt < 2:
                raise TransferDropped("early")
            return "ok"

        policy = RetryPolicy(
            max_retries=5, base_backoff_s=0.001, jitter=0.0, deadline_s=30.0,
        )
        value, stats = call_with_retries(third_time_lucky, policy=policy)
        assert value == "ok" and stats.attempts == 3 and calls == [0, 1, 2]


class TestVirtualClock:
    """With a link, elapsed time is the *virtual* backoff total — so the
    deadline-vs-attempts race is deterministic under simulation."""

    def _link(self):
        return SimulatedLink(NetworkProfile("t", latency_s=0.01, bandwidth_bytes_s=1e6))

    def test_deadline_measured_on_link_clock(self):
        # backoffs: 0.2, 0.4 — the third retry's pause would cross the
        # 1.0s virtual deadline at 0.6+0.8, so exactly 3 attempts run
        link = self._link()
        policy = RetryPolicy(
            max_retries=10, base_backoff_s=0.2, multiplier=2.0,
            max_backoff_s=10.0, jitter=0.0, deadline_s=1.0,
        )
        t0 = time.monotonic()
        with pytest.raises(RetriesExhausted) as info:
            call_with_retries(always_fail, policy=policy, link=link, token="v")
        assert info.value.attempts == 3
        assert info.value.stats.backoff_s == pytest.approx(0.6)
        assert link.clock == pytest.approx(0.6)
        # virtual seconds, not wall seconds
        assert time.monotonic() - t0 < 0.5

    def test_virtual_deadline_is_deterministic(self):
        outcomes = []
        for _ in range(3):
            link = self._link()
            policy = RetryPolicy(
                max_retries=20, base_backoff_s=0.1, multiplier=2.0,
                jitter=0.5, deadline_s=2.0,
            )
            with pytest.raises(RetriesExhausted) as info:
                call_with_retries(
                    always_fail, policy=policy, link=link, token="det"
                )
            outcomes.append((info.value.attempts, link.clock))
        assert len(set(outcomes)) == 1, outcomes
