"""Ratchets for what ROADMAP's ledger table counts by hand."""

import io
import pathlib
import re
import threading
import tokenize

from repro.cluster import ClusterRouter, ClusterShard
from repro.core.policy import EliminationPolicy
from repro.core.worlds import run_alternatives
from repro.journal import CommitJournal
from tests.journal.test_group import CountingStorage

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: ROADMAP's "locks / conditions in `serve/` + `cluster/`" row
LOCKS_CEILING = 13
#: ROADMAP's "`serve/` + `cluster/` lines" row (`wc -l`)
LINES_CEILING = 4843
#: ROADMAP's "`fsync`s per `cluster_remote` op" row
APPENDS_PER_REQUEST_CEILING = 3
#: ROADMAP's "durable appends made while the request holds its slots" row
APPENDS_ON_HELD_SLOTS_CEILING = 0
#: ROADMAP's "threads started per thread-backend block, warm pool" row
THREAD_STARTS_PER_BLOCK_CEILING = 0


def test_serve_and_cluster_lock_count_does_not_rise():
    built = [
        f"{path.relative_to(SRC)}:{lineno}"
        for package in ("serve", "cluster")
        for path in sorted((SRC / package).glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"threading\.(Lock|RLock|Condition)\(", line)
    ]
    assert len(built) <= LOCKS_CEILING, (
        f"{len(built)} locks / conditions in serve/ + cluster/ (ceiling "
        f"{LOCKS_CEILING}): fold one away, or update ROADMAP's ledger row "
        f"and this ceiling together — {built}"
    )


def test_serve_and_cluster_line_count_does_not_rise():
    lines = sum(
        len(path.read_text().splitlines())
        for package in ("serve", "cluster")
        for path in (SRC / package).glob("*.py")
    )
    assert lines <= LINES_CEILING, (
        f"{lines} lines in serve/ + cluster/ (ceiling {LINES_CEILING}): "
        "remove what the change made unnecessary, or update ROADMAP's "
        "ledger row and this ceiling together"
    )


def test_a_journalled_request_costs_at_most_three_durable_appends():
    """ROADMAP's "`fsync`s per `cluster_remote` op: 6 -> 3" row: the
    admit's intent + seal, the block win's three phases and the admit's
    settle are each one ``storage.append`` (one write, one fsync)."""
    storage = CountingStorage()
    shard = ClusterShard(
        0, journal=CommitJournal(storage=storage), journal_admission=True
    )
    storage.appends = 0  # the magic is per journal, not per request
    with ClusterRouter([shard]).start(detect=False) as router:
        assert router.submit("t", [lambda ws: 1], spec={}).result(10).committed
    assert len(shard.journal.records()) == 6
    assert storage.appends <= APPENDS_PER_REQUEST_CEILING, (
        f"{storage.appends} durable appends for one journalled request "
        f"(ceiling {APPENDS_PER_REQUEST_CEILING}): phases of one txn with "
        "nothing between them belong in one CommitJournal.group()"
    )


def test_no_durable_append_is_made_while_the_request_holds_its_slots():
    """The block win's frames are queued while the world runs and reach
    storage only after ``reservation.release()``: no fsync on a slot."""
    storage = CountingStorage()
    shard = ClusterShard(
        0, journal=CommitJournal(storage=storage), journal_admission=True
    )
    in_use = []
    storage.during_append = lambda: in_use.append(shard.budget.in_use)
    with ClusterRouter([shard]).start(detect=False) as router:
        assert router.submit("t", [lambda ws: 1], spec={}).result(10).committed
    assert len(in_use) == 3  # admit, block win, admit settle
    held = sum(1 for slots in in_use if slots)
    assert held <= APPENDS_ON_HELD_SLOTS_CEILING, (
        f"{held} of {len(in_use)} durable appends ran on held slots "
        f"(ceiling {APPENDS_ON_HELD_SLOTS_CEILING}; slots in use at each: "
        f"{in_use}): write after reservation.release()"
    )


def test_a_warm_thread_pool_starts_no_thread_per_block(monkeypatch):
    alts = [lambda ws: 1, lambda ws: 2, lambda ws: 3]

    def block():
        # synchronous: every world is parked again before the block returns
        run_alternatives(
            alts, backend="thread", elimination=EliminationPolicy.SYNCHRONOUS
        )

    for _ in range(20):
        block()
    starts = 0
    start = threading.Thread.start

    def counted_start(thread):
        nonlocal starts
        starts += 1
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    blocks = 200
    for _ in range(blocks):
        block()
    assert starts <= THREAD_STARTS_PER_BLOCK_CEILING * blocks, (
        f"{starts} threads started over {blocks} warm K=3 thread blocks "
        f"(ceiling {THREAD_STARTS_PER_BLOCK_CEILING} per block): a world "
        "runs on a parked pool thread"
    )


def _code_only(path):
    """``path``'s source with comments and string literals dropped."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return "".join(
        tok.string for tok in tokens
        if tok.type not in (tokenize.COMMENT, tokenize.STRING)
    )


def test_router_lands_through_one_ledger_question_and_one_shard_surface():
    code = _code_only(SRC / "cluster" / "router.py")
    asks = code.count("replay_block_win(")
    assert asks <= 1, (
        f"{asks} replay_block_win( calls in cluster/router.py: the landing "
        "side decides replay-or-run in one place (_replay_from)"
    )
    assert ".service." not in code, (
        "cluster/router.py reaches through shard.service: use the flat "
        "shard surface (admit / steal_requests / confirm_stolen / on_resolve)"
    )
