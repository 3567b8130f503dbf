"""Tests for the thread execution backend."""

import multiprocessing
import operator
import os
import queue
import sys
import threading
import time

import pytest

from repro.core.alternative import Alternative, Guard
from repro.core.policy import EliminationPolicy
from repro.core.worlds import run_alternatives
from repro.runtime.thread_backend import _WorldPool


def _sleep_then(seconds, label):
    def alt(ws):
        time.sleep(seconds)
        ws["winner"] = label
        return label

    alt.__name__ = label
    return alt


def test_fastest_wins():
    out = run_alternatives(
        [_sleep_then(0.5, "slow"), _sleep_then(0.02, "fast")], backend="thread"
    )
    assert out.value == "fast"
    assert out.extras["state"]["winner"] == "fast"


def test_workspace_deep_copied():
    def mutator(ws):
        ws["shared"].append("mutated")
        return "m"

    initial = {"shared": ["orig"]}
    out = run_alternatives([mutator], initial=initial, backend="thread")
    assert out.extras["state"]["shared"] == ["orig", "mutated"]
    assert initial["shared"] == ["orig"]  # caller's dict untouched


def test_all_fail():
    def bad(ws):
        raise ValueError("x")

    out = run_alternatives([bad, bad], backend="thread")
    assert out.failed


def test_timeout():
    out = run_alternatives([_sleep_then(10.0, "never")], timeout=0.1, backend="thread")
    assert out.timed_out
    assert out.extras["uncollected"] == 0 or out.failed


def test_losers_uncollected_not_killed():
    out = run_alternatives(
        [_sleep_then(0.02, "fast"), _sleep_then(0.5, "slow")], backend="thread"
    )
    assert out.value == "fast"
    assert out.extras["uncollected"] == 1  # slow is still running, ignored


def test_start_delay_on_threads():
    from repro.core.alternative import Alternative

    delayed = Alternative(_sleep_then(0.0, "delayed"), name="delayed",
                          start_delay=0.3)
    quick = Alternative(_sleep_then(0.02, "quick"), name="quick")
    out = run_alternatives([delayed, quick], backend="thread")
    assert out.value == "quick"


def test_guard_rejection():
    guarded = Alternative(
        _sleep_then(0.01, "guarded"), guard=Guard(check=lambda ws: False)
    )
    out = run_alternatives([guarded, _sleep_then(0.05, "ok")], backend="thread")
    assert out.value == "ok"


def test_a_sleeping_loser_never_delays_the_next_block():
    # the loser's pool thread is busy, not parked: the next world starts
    # on another thread instead of queueing behind it
    out = run_alternatives(
        [_sleep_then(0.0, "fast"), _sleep_then(1.0, "oblivious")], backend="thread"
    )
    assert out.value == "fast" and out.extras["uncollected"] == 1
    t0 = time.perf_counter()
    out = run_alternatives([_sleep_then(0.0, "next")], backend="thread")
    assert out.value == "next"
    assert time.perf_counter() - t0 < 0.5


def _thread_block_in_child(conn):
    out = run_alternatives([_sleep_then(0.0, "child")], backend="thread", timeout=5.0)
    conn.send(out.value)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_runs_worlds_on_a_fresh_pool():
    # park pool threads here first: the child inherits their idle count
    # but not the threads, and must not hand its world to one of them
    run_alternatives(
        [_sleep_then(0.0, f"a{i}") for i in range(3)],
        backend="thread", elimination=EliminationPolicy.SYNCHRONOUS,
    )
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=_thread_block_in_child, args=(theirs,))
    child.start()
    try:
        assert ours.poll(10) and ours.recv() == "child"
    finally:
        child.join(10)
    assert child.exitcode == 0


def test_the_pool_loses_no_parked_thread_under_contention(monkeypatch):
    """Eight callers hand 1 600 tasks to one pool under a tiny switch
    interval. Every thread counts itself parked before its result is out,
    so once all results are in, the pool's idle count is exactly the
    threads it started: a lost update of that count would break this."""
    pool = _WorldPool()
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        if thread.name == "mw-world":
            started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    out = queue.SimpleQueue()

    def caller(base):
        for i in range(200):
            pool.run(operator.add, (base, i), out)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k * 1000,)) for k in range(8)]
        for thread in callers:
            thread.start()
        results = sorted(out.get(timeout=30) for _ in range(1600))
        for thread in callers:
            thread.join(10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == sorted(k * 1000 + i for k in range(8) for i in range(200))
    assert pool._idle == len(started) <= 1600
