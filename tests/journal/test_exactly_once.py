"""Exactly-once at the layers above the kernel: backends, supervisor, rfork."""

import pytest

from repro.core.worlds import run_alternatives
from repro.faults import Supervisor
from repro.journal import CommitJournal, find_block_win

from netmodel.checkpoint import CheckpointImage


def fast(ws):
    ws["who"] = "fast"
    return "fast"


def slow(ws):
    import time

    time.sleep(0.3)
    ws["who"] = "slow"
    return "slow"


def boom(ws):
    raise RuntimeError("boom")


CALLS = {"n": 0}


def counting_task(state):
    CALLS["n"] += 1
    return state["x"] * 2


class TestBackendsRecordWins:
    @pytest.mark.parametrize("backend", ["fork", "thread", "sequential"])
    def test_win_journaled(self, backend):
        j = CommitJournal()
        outcome = run_alternatives(
            [fast, slow], backend=backend, block_id=3, journal=j
        )
        assert outcome.value == "fast"
        hit = find_block_win(j, 3)
        assert hit is not None
        assert hit["winner_name"] == "fast"
        assert hit["value"] == "fast"
        # exactly one block txn, sealed and applied
        blocks = [
            r for r in j.records() if r["t"] == "intent" and r["kind"] == "block"
        ]
        assert len(blocks) == 1
        assert j.status(blocks[0]["seq"]) == "applied"

    def test_no_journal_no_records(self):
        outcome = run_alternatives([fast], backend="sequential", block_id=3)
        assert outcome.value == "fast"

    def test_failed_block_records_nothing(self):
        j = CommitJournal()
        outcome = run_alternatives(
            [boom], backend="sequential", block_id=3, journal=j
        )
        assert outcome.winner is None
        assert find_block_win(j, 3) is None


class TestSupervisorReplay:
    def test_restarted_supervisor_replays_win(self):
        j = CommitJournal()
        sup = Supervisor(max_retries=0, block_id=11, journal=j)
        first = sup.run([fast], backend="sequential")
        assert first.value == "fast"
        assert "journal_recovered" not in first.extras
        # "restart": a new supervisor over the same journal — the block
        # must not run again (alternatives that would fail loudly prove it)
        sup2 = Supervisor(max_retries=0, block_id=11, journal=j)
        second = sup2.run([boom], backend="sequential")
        assert second.value == "fast"
        assert second.extras["journal_recovered"] is True

    def test_different_block_id_not_replayed(self):
        j = CommitJournal()
        Supervisor(max_retries=0, block_id=11, journal=j).run(
            [fast], backend="sequential"
        )
        outcome = Supervisor(max_retries=0, block_id=12, journal=j).run(
            [fast], backend="sequential"
        )
        assert "journal_recovered" not in outcome.extras

    def test_without_journal_reruns(self):
        sup = Supervisor(max_retries=0, block_id=11)
        assert sup.run([fast], backend="sequential").value == "fast"
        assert sup.run([fast], backend="sequential").value == "fast"


class TestRestartDedupe:
    def test_restart_in_fork_exactly_once_per_image(self):
        j = CommitJournal()
        image = CheckpointImage.capture(counting_task, {"x": 21}, "job")
        assert image.restart_in_fork(journal=j) == 42
        # the repeat (crash between child finish and caller consume)
        # replays the journalled value; a second run would have begun a
        # second "restart" txn, so one intent proves the task ran once
        assert image.restart_in_fork(journal=j) == 42
        restarts = [
            r for r in j.records() if r["t"] == "intent" and r["kind"] == "restart"
        ]
        assert len(restarts) == 1

    def test_different_payload_not_deduped(self):
        j = CommitJournal()
        a = CheckpointImage.capture(counting_task, {"x": 1}, "job")
        b = CheckpointImage.capture(counting_task, {"x": 2}, "job")
        assert a.restart_in_fork(journal=j) == 2
        assert b.restart_in_fork(journal=j) == 4

    def test_without_journal_unchanged(self):
        image = CheckpointImage.capture(counting_task, {"x": 5}, "job")
        assert image.restart_in_fork() == 10
