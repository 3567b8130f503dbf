"""Injected faults against real forked worlds: crash, corrupt reports,
hangs under watchdog escalation, lost kill signals, spawn failure."""

import os
import signal
import time

import pytest

from repro.core.alternative import Alternative
from repro.core.policy import EliminationPolicy, WatchdogPolicy
from repro.errors import SpawnError
from repro.faults.plan import FaultKind, FaultPlan
from repro.runtime.fork_backend import run_alternatives_fork
from repro.runtime.report_channel import ReportChannel

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _sleep_then(seconds, label):
    def alt(ws):
        time.sleep(seconds)
        ws["winner"] = label
        return label

    alt.__name__ = label
    return alt


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _rate1(kind, **knobs):
    return FaultPlan(seed=0, rates={kind: 1.0}, **knobs)


class TestChildFaults:
    def test_injected_crash_is_a_deterministic_loser(self):
        # seed 4, rate 0.3: attempt 0 dooms exactly index 0
        plan = FaultPlan.crashes(seed=4, rate=0.3)
        sched = [i for i, _, d in plan.schedule(0, 2) if d.fires]
        assert sched == [0]
        out = run_alternatives_fork(
            [_sleep_then(0.01, "doomed"), _sleep_then(0.05, "backup")],
            fault_plan=plan,
        )
        assert out.value == "backup"
        doomed = next(l for l in out.losers if l.name == "doomed")
        assert doomed.error == "child died without reporting"
        assert out.extras["injected_faults"] == [
            {"index": 0, "name": "doomed", "kind": "crash-before-report"}
        ]

    def test_truncated_report_diagnosed(self):
        out = run_alternatives_fork(
            [_sleep_then(0.0, "only")],
            fault_plan=_rate1(FaultKind.TRUNCATE_REPORT),
        )
        assert out.failed
        assert "truncated report" in out.losers[0].error
        assert out.losers[0].elapsed_s > 0

    def test_killed_between_body_and_header_is_truncated_not_silent(self, monkeypatch):
        send = ReportChannel.send

        def dies_mid_send(channel, report, claimed=None):
            # the real send streams the whole body; its header goes nowhere
            channel.pipe_fd = os.open(os.devnull, os.O_WRONLY)
            send(channel, report, claimed)
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(ReportChannel, "send", dies_mid_send)
        out = run_alternatives_fork([_sleep_then(0.0, "only")])
        assert out.failed
        assert out.losers[0].error == "truncated report (child died mid-write)"
        _assert_no_children()

    def test_corrupt_report_is_a_clean_failure(self):
        out = run_alternatives_fork(
            [_sleep_then(0.0, "only")],
            fault_plan=_rate1(FaultKind.CORRUPT_REPORT),
        )
        assert out.failed
        assert "unpicklable report" in out.losers[0].error

    def test_injected_guard_exception_fails_guard(self):
        out = run_alternatives_fork(
            [_sleep_then(0.0, "only")],
            fault_plan=_rate1(FaultKind.GUARD_EXCEPTION),
        )
        assert out.failed
        assert out.losers[0].guard_failed
        assert "injected exception" in out.losers[0].error

    def test_slow_start_delays_but_still_wins(self):
        out = run_alternatives_fork(
            [_sleep_then(0.0, "only")],
            fault_plan=_rate1(FaultKind.SLOW_START, slow_start_s=0.2),
        )
        assert out.value == "only"
        assert out.winner.elapsed_s >= 0.2


class TestSpawnAndKillFaults:
    def test_spawn_failure_raises_spawnerror_and_cleans_up(self):
        with pytest.raises(SpawnError, match="injected"):
            run_alternatives_fork(
                [_sleep_then(5.0, "a"), _sleep_then(5.0, "b")],
                fault_plan=_rate1(FaultKind.SPAWN_FAIL),
            )
        _assert_no_children()

    def test_lost_kill_signal_is_resent_no_zombies(self):
        # every child's first signal is "lost"; verified reaping must
        # notice the survivor and resend until it is actually gone
        plan = _rate1(FaultKind.KILL_FAIL)
        for policy in (EliminationPolicy.SYNCHRONOUS, EliminationPolicy.ASYNCHRONOUS):
            out = run_alternatives_fork(
                [_sleep_then(0.02, "fast")]
                + [_sleep_then(30.0, f"s{i}") for i in range(3)],
                elimination=policy,
                fault_plan=plan,
            )
            assert out.value == "fast"
            assert "zombies" not in out.extras
            _assert_no_children()


class TestWatchdog:
    def test_sigterm_then_sigkill_for_term_ignoring_child(self):
        def stubborn(ws):
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(30.0)
            return "never"

        t0 = time.perf_counter()
        out = run_alternatives_fork(
            [stubborn],
            watchdog=WatchdogPolicy(soft_deadline_s=0.15, term_grace_s=0.1),
        )
        wall = time.perf_counter() - t0
        assert wall < 5.0
        assert out.failed
        assert out.losers[0].error == "killed by watchdog (soft deadline exceeded)"
        actions = [e["action"] for e in out.extras["watchdog"]]
        assert actions.index("sigterm") < actions.index("sigkill")
        assert out.extras["watchdog_grace_s"] >= 0.1
        assert out.watchdog_events  # BlockOutcome property surfaces them
        _assert_no_children()

    def test_grace_period_allows_clean_exit(self, tmp_path):
        marker = tmp_path / "cleanup-ran"

        def polite(ws):
            def on_term(signum, frame):
                marker.write_text("released resources")
                os._exit(0)

            signal.signal(signal.SIGTERM, on_term)
            time.sleep(30.0)
            return "never"

        out = run_alternatives_fork(
            [polite],
            watchdog=WatchdogPolicy(soft_deadline_s=0.1, term_grace_s=1.0),
        )
        assert out.failed
        events = out.extras["watchdog"]
        assert [e["action"] for e in events] == ["sigterm"]  # never escalated
        assert marker.read_text() == "released resources"
        _assert_no_children()

    def test_injected_hangs_cannot_wedge_a_watchdogged_block(self):
        plan = _rate1(FaultKind.HANG, hang_s=30.0)
        t0 = time.perf_counter()
        out = run_alternatives_fork(
            [_sleep_then(0.0, "a"), _sleep_then(0.0, "b")],
            fault_plan=plan,
            watchdog=WatchdogPolicy(soft_deadline_s=0.2, term_grace_s=0.1),
        )
        wall = time.perf_counter() - t0
        assert wall < 5.0  # the 30s hangs were escalated away
        assert out.failed and not out.timed_out
        assert all(
            l.error == "killed by watchdog (soft deadline exceeded)"
            for l in out.losers
        )
        _assert_no_children()

    def test_watchdog_spares_children_within_deadline(self):
        out = run_alternatives_fork(
            [_sleep_then(0.05, "fine")],
            watchdog=WatchdogPolicy(soft_deadline_s=5.0, term_grace_s=0.1),
        )
        assert out.value == "fine"
        assert "watchdog" not in out.extras

    def test_watchdog_deadline_respects_stagger(self):
        # start_delay shifts the soft deadline, so a staggered spare is
        # not condemned for time it spent deliberately idle
        spare = Alternative(
            _sleep_then(0.05, "spare"), name="spare", start_delay=0.3
        )
        out = run_alternatives_fork(
            [spare],
            watchdog=WatchdogPolicy(soft_deadline_s=0.2, term_grace_s=0.05),
        )
        assert out.value == "spare"
