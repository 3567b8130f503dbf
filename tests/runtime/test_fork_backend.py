"""Tests for the os.fork execution backend (real COW worlds)."""

import errno
import operator
import os
import signal
import time

import pytest

from repro.core.alternative import Alternative, Guard, GuardPlacement
from repro.core.policy import EliminationPolicy, WatchdogPolicy
from repro.core.worlds import run_alternatives
from repro.errors import SpawnError
from repro.faults.plan import SPAWN_SITE, FaultKind, FaultPlan
import repro.journal
from repro.journal import CommitJournal
from repro.runtime import fork_backend
from repro.runtime.fork_backend import _await_exit, _send_report, run_alternatives_fork
from repro.runtime.report_channel import ReportChannel, _anonymous_file

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _sleep_then(seconds, label):
    def alt(ws):
        time.sleep(seconds)
        ws["winner"] = label
        return label

    alt.__name__ = label
    return alt


def test_fastest_alternative_wins():
    out = run_alternatives(
        [_sleep_then(0.5, "slow"), _sleep_then(0.02, "fast")],
        backend="fork",
    )
    assert out.value == "fast"
    assert out.winner.index == 1
    assert out.extras["state"]["winner"] == "fast"


def test_response_time_tracks_best_not_mean():
    t0 = time.perf_counter()
    out = run_alternatives(
        [_sleep_then(0.05, "fast"), _sleep_then(1.0, "slow")],
        backend="fork",
    )
    wall = time.perf_counter() - t0
    assert out.value == "fast"
    assert wall < 0.6  # far below the 1.0s loser and the 0.52s mean


def test_workspace_isolation_loser_writes_discarded():
    def fast(ws):
        ws["x"] = "fast-wrote"
        return "fast"

    def slow(ws):
        ws["x"] = "slow-wrote"
        ws["slow-only"] = True
        time.sleep(0.8)
        return "slow"

    out = run_alternatives([fast, slow], initial={"x": "orig"}, backend="fork")
    assert out.extras["state"]["x"] == "fast-wrote"
    assert "slow-only" not in out.extras["state"]


def test_all_fail_selects_failure():
    def bad1(ws):
        raise ValueError("nope")

    def bad2(ws):
        raise RuntimeError("also nope")

    out = run_alternatives([bad1, bad2], backend="fork")
    assert out.failed
    assert not out.timed_out
    assert len(out.losers) == 2


def test_one_failure_tolerated():
    def bad(ws):
        raise ValueError("nope")

    out = run_alternatives([bad, _sleep_then(0.02, "good")], backend="fork")
    assert out.value == "good"


def test_timeout_kills_stragglers():
    t0 = time.perf_counter()
    out = run_alternatives([_sleep_then(30.0, "never")], timeout=0.3, backend="fork")
    wall = time.perf_counter() - t0
    assert out.timed_out and out.failed
    assert wall < 2.0


def test_crashing_child_counts_as_failed():
    def crasher(ws):
        os._exit(7)  # dies without reporting

    out = run_alternatives([crasher, _sleep_then(0.05, "ok")], backend="fork")
    assert out.value == "ok"
    errors = [l.error for l in out.losers]
    assert any("without reporting" in (e or "") for e in errors)


def test_guard_entry_in_child():
    guarded = Alternative(
        _sleep_then(0.01, "guarded"),
        guard=Guard(name="no", check=lambda ws: False),
    )
    out = run_alternatives([guarded, _sleep_then(0.1, "ok")], backend="fork")
    assert out.value == "ok"
    assert any(l.guard_failed for l in out.losers)


def test_guard_before_spawn_skips_fork():
    guarded = Alternative(
        _sleep_then(0.01, "guarded"),
        guard=Guard(check=lambda ws: False, placement=GuardPlacement.BEFORE_SPAWN),
    )
    out = run_alternatives([guarded, _sleep_then(0.05, "ok")], backend="fork")
    assert out.value == "ok"
    rejected = [l for l in out.losers if l.guard_failed]
    assert rejected and rejected[0].error == "guard rejected before spawn"


def test_guard_at_sync_rechecked_in_parent():
    tricky = Alternative(
        _sleep_then(0.01, "tricky"),
        guard=Guard(
            accept=lambda ws, v: v != "tricky",
            placement=GuardPlacement.AT_SYNC,
        ),
    )
    out = run_alternatives([tricky, _sleep_then(0.2, "honest")], backend="fork")
    assert out.value == "honest"


def test_sync_vs_async_elimination_latency():
    alts = [_sleep_then(0.02, "fast")] + [_sleep_then(5.0, f"s{i}") for i in range(8)]
    out_async = run_alternatives(
        alts, backend="fork", elimination=EliminationPolicy.ASYNCHRONOUS
    )
    out_sync = run_alternatives(
        alts, backend="fork", elimination=EliminationPolicy.SYNCHRONOUS
    )
    assert out_async.value == "fast" and out_sync.value == "fast"
    assert out_async.extras["eliminated"] == 8
    # both should finish fast; async completion accounting is never slower
    # than sync on the same machine by more than noise
    assert out_async.overhead.completion_s <= out_sync.overhead.completion_s + 0.05


def test_large_state_roundtrip():
    def producer(ws):
        ws["blob"] = bytes(2_000_000)
        return len(ws["blob"])

    out = run_alternatives([producer], backend="fork")
    assert out.value == 2_000_000
    assert len(out.extras["state"]["blob"]) == 2_000_000


def test_no_zombies_left_behind():
    """Every child is reaped, under both elimination policies."""
    for policy in (EliminationPolicy.SYNCHRONOUS, EliminationPolicy.ASYNCHRONOUS):
        run_alternatives(
            [_sleep_then(0.01, "fast")] + [_sleep_then(5.0, f"s{i}") for i in range(3)],
            backend="fork",
            elimination=policy,
        )
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no children of ours remain


class CrashingJournal(CommitJournal):
    def begin(self, *args, **kwargs):
        raise RuntimeError("crash-before-seal")


def test_no_zombies_left_behind_by_an_exception():
    """A raise out of the rendezvous (here: the journal dies while the win
    is being recorded) still reaps the winner and the killed losers."""
    for policy in (EliminationPolicy.SYNCHRONOUS, EliminationPolicy.ASYNCHRONOUS):
        with pytest.raises(RuntimeError, match="crash-before-seal"):
            run_alternatives_fork(
                [_sleep_then(0.01, "fast"), _sleep_then(5.0, "s0"), _sleep_then(5.0, "s1")],
                elimination=policy,
                journal=CrashingJournal(),
            )
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _record_kills(monkeypatch, log):
    """Log ``(index, signal)`` for every signal the block sends a child."""
    kill = fork_backend._kill

    def recorded(pid, index, sig):
        log.append((index, sig))
        return kill(pid, index, sig)

    monkeypatch.setattr(fork_backend, "_kill", recorded)


def test_losers_are_signalled_before_the_win_is_journalled(monkeypatch):
    """Elimination starts at acceptance: the losers die while the parent
    journals the win, reaps the winner and assembles the outcome."""
    log = []
    _record_kills(monkeypatch, log)
    record_block_win = repro.journal.record_block_win

    def recorded(*args, **kwargs):
        log.append("record_block_win")
        return record_block_win(*args, **kwargs)

    monkeypatch.setattr(repro.journal, "record_block_win", recorded)
    for policy in (EliminationPolicy.SYNCHRONOUS, EliminationPolicy.ASYNCHRONOUS):
        log.clear()
        out = run_alternatives_fork(
            [_sleep_then(0.01, "fast"), _sleep_then(30.0, "s0"), _sleep_then(30.0, "s1")],
            elimination=policy,
            journal=CommitJournal(),
        )
        assert out.value == "fast"
        assert log == [(1, signal.SIGKILL), (2, signal.SIGKILL), "record_block_win"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class _FailsToUnpickle:
    """Pickles in the child; unpickling it raises in the parent."""

    def __reduce__(self):
        return operator.truediv, (1, 0)


def _corrupts_only_the_first_of_three():
    plans = (FaultPlan(seed=s, rates={FaultKind.CORRUPT_REPORT: 0.5}) for s in range(64))
    return next(
        plan for plan in plans
        if [d.fires for _, _, d in plan.schedule(0, 3)] == [True, False, False]
    )


@pytest.mark.parametrize(
    "first, error",
    [
        ("corrupt", "unpicklable report"),
        ("fails-to-unpickle", "unpicklable report: ZeroDivisionError"),
        ("rejected-at-sync", "guard rejected result at sync"),
    ],
)
def test_a_rejected_first_report_signals_no_one(monkeypatch, first, error):
    """Only an accepted report starts elimination: a sibling still wins."""
    log = []
    _record_kills(monkeypatch, log)
    fault_plan = None
    if first == "corrupt":
        fault_plan = _corrupts_only_the_first_of_three()
        bad = _sleep_then(0.0, "bad")
    elif first == "fails-to-unpickle":
        def bad(ws):
            return _FailsToUnpickle()
    else:
        parent = os.getpid()  # the child's own result guard passes; the parent's recheck fails
        bad = Alternative(
            _sleep_then(0.0, "bad"),
            guard=Guard(
                accept=lambda ws, v: os.getpid() != parent, placement=GuardPlacement.AT_SYNC
            ),
        )
    out = run_alternatives_fork(
        [bad, _sleep_then(0.3, "sibling"), _sleep_then(30.0, "slow")],
        fault_plan=fault_plan,
    )
    assert out.value == "sibling"
    assert log == [(2, signal.SIGKILL)]
    (first_loser,) = [l for l in out.losers if l.index == 0]
    assert first_loser.error.startswith(error)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_start_delay_staggers_real_children():
    from repro.core.alternative import Alternative

    primary = Alternative(_sleep_then(0.02, "primary"), name="primary")
    spare = Alternative(
        _sleep_then(0.0, "spare"), name="spare", start_delay=5.0
    )
    t0 = time.perf_counter()
    out = run_alternatives([primary, spare], backend="fork")
    wall = time.perf_counter() - t0
    # the staggered spare never got a chance; the primary won quickly
    assert out.value == "primary"
    assert wall < 2.0


def test_unpicklable_workspace_entries_dropped_not_fatal():
    def solver(ws):
        ws["answer"] = 42
        return "solved"

    out = run_alternatives(
        [solver], initial={"f": lambda x: x, "n": 5}, backend="fork"
    )
    assert out.value == "solved"
    state = out.extras["state"]
    assert state["answer"] == 42 and state["n"] == 5
    assert state["_unpicklable"] == ["f"]


def test_unpicklable_result_is_a_clean_failure():
    def bad(ws):
        return lambda: None

    out = run_alternatives([bad], backend="fork")
    assert out.failed
    assert "not picklable" in out.losers[0].error


def test_timeout_no_winner_losers_labeled_timeout_killed():
    out = run_alternatives(
        [_sleep_then(30.0, "s0"), _sleep_then(30.0, "s1")],
        timeout=0.2,
        backend="fork",
    )
    assert out.timed_out and out.failed
    assert [l.error for l in out.losers] == ["timeout-killed", "timeout-killed"]
    assert all(l.elapsed_s > 0 for l in out.losers)


def test_losers_after_winner_labeled_eliminated():
    out = run_alternatives(
        [_sleep_then(0.02, "fast"), _sleep_then(30.0, "slow")], backend="fork"
    )
    assert out.value == "fast"
    slow = next(l for l in out.losers if l.name == "slow")
    assert slow.error == "eliminated"
    assert slow.elapsed_s > 0


def test_all_alternatives_skipped_by_pre_spawn_guards():
    def never_runs(ws):  # pragma: no cover - must not execute
        raise AssertionError("spawned despite BEFORE_SPAWN rejection")

    alts = [
        Alternative(
            never_runs,
            name=f"alt{i}",
            guard=Guard(check=lambda ws: False, placement=GuardPlacement.BEFORE_SPAWN),
        )
        for i in range(3)
    ]
    out = run_alternatives(alts, backend="fork")
    assert out.failed and not out.timed_out
    assert len(out.losers) == 3
    assert all(l.error == "guard rejected before spawn" for l in out.losers)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # nothing was ever forked


class TestEncodeReport:
    """The child-side report path: streamed into the channel's file, and
    sanitized when it will not pickle. Both ends run in this process."""

    def _roundtrip(self, payload):
        read_fd, write_fd = os.pipe()
        file_fd = _anonymous_file()
        child = ReportChannel(write_fd, file_fd)
        parent = ReportChannel(read_fd, os.dup(file_fd))
        try:
            _send_report(child, payload)
            return parent.recv()
        finally:
            child.close()
            parent.close()

    def test_picklable_payload_passes_through(self):
        payload = ("ok", 42, {"x": [1, 2], "y": "z"})
        assert self._roundtrip(payload) == payload

    def test_unpicklable_workspace_entries_dropped_and_listed(self):
        # "big" reaches the file before pickling fails at "f": the sanitized
        # report must replace that partial stream, not follow it
        big = bytes(range(256)) * 1024
        with open(os.devnull) as devnull:
            status, value, ws = self._roundtrip(
                ("ok", 7, {"big": big, "f": lambda x: x, "g": devnull, "n": 5})
            )
        assert (status, value) == ("ok", 7)
        assert ws["n"] == 5 and ws["big"] == big
        assert ws["_unpicklable"] == ["f", "g"]
        assert "f" not in ws and "g" not in ws

    def test_unpicklable_value_becomes_clean_failure(self):
        status, reason = self._roundtrip(("ok", lambda: None, {}))
        assert status == "fail"
        assert "not picklable" in reason

    def test_unserializable_failure_report_degrades_gracefully(self):
        status, reason = self._roundtrip(("fail", lambda: None))
        assert status == "fail"
        assert reason == "unserializable failure report"


def _open_descriptors():
    """What each of this process's descriptors is open on."""
    links = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            links.append(os.readlink(f"/proc/self/fd/{fd}"))
        except FileNotFoundError:  # the listing's own descriptor
            pass
    return sorted(links)


def _fork_child(lifetime_s):
    pid = os.fork()
    if pid == 0:
        time.sleep(lifetime_s)
        os._exit(0)
    return pid


class TestAwaitExit:
    """The wait every reap blocks in: it ends on the child's exit, or at the
    timeout so the caller can re-signal; it never reaps and never leaks."""

    def test_returns_on_exit_not_at_the_timeout(self):
        pid = _fork_child(0.02)
        t0 = time.perf_counter()
        _await_exit([pid], 2.0)
        waited = time.perf_counter() - t0
        assert os.waitpid(pid, 0) == (pid, 0)  # the wait left the reaping to us
        if hasattr(os, "pidfd_open"):
            assert waited < 1.0

    def test_returns_at_the_timeout_while_the_child_lives(self):
        pid = _fork_child(30.0)
        try:
            t0 = time.perf_counter()
            _await_exit([pid], 0.05)
            assert time.perf_counter() - t0 < 1.0
            assert os.waitpid(pid, os.WNOHANG) == (0, 0)  # still running
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def test_lost_signal_is_still_resent_after_the_wait(self):
        # every child's first signal is lost: the wait must time out and
        # hand back to the re-signalling loop rather than block on a
        # child nothing has killed yet
        out = run_alternatives_fork(
            [_sleep_then(0.02, "fast"), _sleep_then(30.0, "s0"), _sleep_then(30.0, "s1")],
            fault_plan=FaultPlan(seed=0, rates={FaultKind.KILL_FAIL: 1.0}),
        )
        assert out.value == "fast"
        assert [e["action"] for e in out.extras["watchdog"]] == ["signal-lost"] * 2
        assert "zombies" not in out.extras
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_already_reaped_pid_is_gone_not_an_error(self):
        pid = _fork_child(0.0)
        os.waitpid(pid, 0)
        t0 = time.perf_counter()
        _await_exit([pid], 2.0)  # ESRCH from pidfd_open
        if hasattr(os, "pidfd_open"):
            assert time.perf_counter() - t0 < 1.0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_no_descriptor_leak_over_200_blocks(self):
        """Every way a block can end gives back each child's pipe end and
        report file: the parent's descriptors are the same ones afterwards."""

        def failing(ws):
            raise ValueError("nope")

        racing = [_sleep_then(0.0, "fast"), _sleep_then(5.0, "slow")]
        kinds = {
            "won": dict(alternatives=racing),
            "failed": dict(alternatives=[failing, failing]),
            "timed-out": dict(alternatives=[_sleep_then(5.0, "never")], timeout=0.01),
            "watchdog-killed": dict(
                alternatives=[_sleep_then(5.0, "hung")],
                watchdog=WatchdogPolicy(soft_deadline_s=0.01, term_grace_s=0.01),
            ),
            # alternative 0 is forked, alternative 1's spawn is refused
            "spawn-aborted": dict(
                alternatives=racing,
                fault_plan=FaultPlan(seed=5, rates={FaultKind.SPAWN_FAIL: 0.5}),
            ),
            "journal-exception": dict(alternatives=racing, journal=CrashingJournal()),
        }
        raises = {"spawn-aborted": SpawnError, "journal-exception": RuntimeError}
        refused = [
            kinds["spawn-aborted"]["fault_plan"].decide(SPAWN_SITE, 0, index, 0).fires
            for index in range(2)
        ]
        assert refused == [False, True]
        run_alternatives_fork(**kinds["won"])  # lazy imports open nothing later
        before = _open_descriptors()
        mix = ["won"] * 20 + [k for k in kinds if k != "won"]  # 8 rounds of 25
        for i in range(200):
            kind = mix[i % len(mix)]
            if kind in raises:
                with pytest.raises(raises[kind]):
                    run_alternatives_fork(**kinds[kind])
            else:
                out = run_alternatives_fork(**kinds[kind])
                assert (out.winner is not None) == (kind == "won"), kind
        assert _open_descriptors() == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_a_child_holds_no_siblings_pipe_end_or_report_file(self):
        def count_mine(ws):
            raise ValueError(len(os.listdir("/proc/self/fd")))

        before = len(os.listdir("/proc/self/fd"))
        out = run_alternatives_fork([count_mine] * 4)
        # its own pipe end and report file on top of what the parent had,
        # however many older siblings' channels it was born holding
        assert [l.error for l in out.losers] == [
            f"alternative raised ValueError({before + 2})"
        ] * 4


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("failing_call", [2, 3])
def test_fork_failure_mid_spawn_leaves_no_child_and_no_descriptor(monkeypatch, failing_call):
    """A real EAGAIN from ``fork()`` arrives after the channel for that child
    was opened: it must be closed again, along with the older children's."""
    real_fork, calls = os.fork, []

    def fork():
        calls.append(None)
        if len(calls) == failing_call:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    before = _open_descriptors()
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(SpawnError, match="Resource temporarily unavailable"):
        run_alternatives_fork([_sleep_then(5.0, f"s{i}") for i in range(3)])
    assert _open_descriptors() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "memfd_create"), reason="already the only branch here")
@pytest.mark.parametrize(
    "test",
    [
        test_fastest_alternative_wins,
        test_all_fail_selects_failure,
        test_crashing_child_counts_as_failed,
        test_large_state_roundtrip,
        test_no_zombies_left_behind_by_an_exception,
        test_unpicklable_workspace_entries_dropped_not_fatal,
        TestAwaitExit().test_a_child_holds_no_siblings_pipe_end_or_report_file,
    ],
    ids=lambda test: test.__name__,
)
def test_again_with_the_report_in_an_unlinked_temp_file(monkeypatch, test):
    """The branch taken where ``os.memfd_create`` is absent."""
    monkeypatch.delattr(os, "memfd_create")
    test()


def test_genuine_parallelism_across_cpus():
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs >= 2 CPUs")

    def busy(ws):
        deadline = time.perf_counter() + 0.4
        x = 0
        while time.perf_counter() < deadline:
            x += 1
        return x

    t0 = time.perf_counter()
    out = run_alternatives([busy, busy], backend="fork")
    wall = time.perf_counter() - t0
    assert out.winner is not None
    assert wall < 0.75  # two 0.4s busy loops ran concurrently
