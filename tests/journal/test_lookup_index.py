"""The keyed lookup index behind ``find_applied`` / ``find_sealed``.

Four contracts: the index answers exactly what the linear scan answers
(a hypothesis property over random histories, with a test-local scan
over the listing calls as reference); its cost is a candidate *count*
that does not grow with the journal; a reopened and a live journal stay
within a bytes/request budget; and none of it reaches the disk (golden
bytes from the commit before the index existed).
"""

import gc
import os
import pickle
import struct
import sys
import threading
import tracemalloc
import zlib
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.journal import (
    CommitJournal,
    MemoryJournalStorage,
    find_block_win,
    record_block_win,
)
from repro.journal.wal import MAGIC, SNAP_MAGIC

#: the frame header, spelled here independently of the codec under test
_FRAME = struct.Struct("<II")


# -- the reference: the scan as it was before the index -------------------
# built on the listing calls, which never consult the index
def _ref_matches(intent, match):
    data = intent["data"]
    return all(data.get(k) == v for k, v in match.items())


def scan_sealed(journal, kind, **match):
    settled = journal.sealed_unapplied_intents(kind) + [
        intent for intent, _ in journal.applied_intents(kind)
    ]
    for intent in sorted(settled, key=lambda i: i["seq"], reverse=True):
        if _ref_matches(intent, match):
            return intent
    return None


def scan_applied(journal, kind, **match):
    for intent, applied in reversed(journal.applied_intents(kind)):
        if _ref_matches(intent, match):
            return intent, applied
    return None


def assert_same_answers(journal, kind, **match):
    # equal by value: every call builds its dicts afresh
    got, want = journal.find_sealed(kind, **match), scan_sealed(journal, kind, **match)
    assert got == want, (kind, match, got, want)
    got, want = journal.find_applied(kind, **match), scan_applied(journal, kind, **match)
    assert got == want, (kind, match, got, want)


# -- equivalence property --------------------------------------------------
#: kind -> the data field its lookups name ("commit" carries a ``block``
#: field too, so the kind filter is exercised; "restart" is the unkeyed
#: two-field match of runtime.checkpoint)
FIELDS = {"block": "block", "admit": "request", "commit": "block", "restart": "name"}
#: repeated keys, one equal-but-distinct pair (1 == 1.0), a missing field
#: (None) and an unhashable value
KEYS = [0, 1, 1.0, 2, "k", None, [1, 2]]
NEVER_SEEN = 99
#: histories the property draws; CI's fuzz-smoke step asks for more
INDEX_EXAMPLES = int(os.environ.get("JOURNAL_INDEX_EXAMPLES", "120"))

step = st.one_of(
    st.tuples(
        st.just("begin"), st.sampled_from(sorted(FIELDS)),
        st.integers(0, len(KEYS) - 1), st.integers(0, 1),
    ),
    st.tuples(st.sampled_from(["seal", "apply", "abort"]), st.integers(0, 50)),
    st.tuples(st.sampled_from(["snapshot", "compact", "reopen"])),
)


def _pick(seqs, i):
    return seqs[i % len(seqs)] if seqs else None


@settings(max_examples=INDEX_EXAMPLES, deadline=None)
@given(st.lists(step, max_size=40))
def test_index_answers_what_the_scan_answers(steps):
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage)
    ledger = {}  # the reference: seq -> [kind, data, status, applied data]
    for op, *args in steps:
        if op == "begin":
            kind, key_i, attempt = args
            data = {"attempt": attempt}
            if KEYS[key_i] is not None:
                data[FIELDS[kind]] = KEYS[key_i]
            ledger[journal.begin(kind, **data)] = [kind, data, "open", None]
        elif op == "seal":
            seq = _pick(journal.unsealed_txns(), args[0])
            if seq is not None:
                journal.seal(seq)
                ledger[seq][2] = "sealed"
        elif op == "apply":
            seq = _pick(journal.sealed_unapplied(), args[0])
            if seq is not None:
                journal.mark_applied(seq, value=seq)
                ledger[seq][2:] = ["applied", {"value": seq}]
        elif op == "abort":
            seq = _pick(journal.unsealed_txns(), args[0])
            if seq is not None:
                journal.abort(seq, "test")
                ledger[seq][2] = "aborted"
        elif op == "snapshot":
            journal.snapshot()
        elif op == "compact":
            journal.compact()
        else:  # drop the process, keep the disk
            journal = CommitJournal(storage)

        assert {seq: journal.status(seq) for seq in ledger} == {
            seq: line[2] for seq, line in ledger.items()
        }
        for kind in FIELDS:
            assert journal.applied_intents(kind) == [
                ({"t": "intent", "seq": seq, "kind": k, "data": data}, applied)
                for seq, (k, data, status, applied) in sorted(ledger.items())
                if k == kind and status == "applied"
            ]
        for kind, field in FIELDS.items():
            for key in [*KEYS, NEVER_SEEN]:
                assert_same_answers(journal, kind, **{field: key})
                # an extra match field still filters
                assert_same_answers(journal, kind, **{field: key, "attempt": 1})
            assert_same_answers(journal, kind)  # no key named: the scan
            assert_same_answers(journal, kind, attempt=0)


class TestLookupSemantics:
    """The behaviours callers lean on, spelled out one by one."""

    def test_latest_seq_wins_among_duplicates(self):
        j = CommitJournal()
        seqs = []
        for attempt in range(3):
            seq = j.begin("block", block=7, attempt=attempt)
            j.seal(seq)
            j.mark_applied(seq, value=attempt)
            seqs.append(seq)
        assert j.find_sealed("block", block=7)["seq"] == seqs[-1]
        assert j.find_applied("block", block=7)[1] == {"value": 2}
        assert j.find_applied("block", block=7, attempt=0)[0]["seq"] == seqs[0]
        reopened = CommitJournal(MemoryJournalStorage(j.storage.load()))
        assert reopened.find_applied("block", block=7)[0]["seq"] == seqs[-1]

    def test_settled_admit_is_still_found_sealed(self):
        # SpeculationService._journal_admit relies on this for re-landed
        # requests: applied txns keep their seal
        j = CommitJournal()
        seq = j.begin("admit", request=5, tenant="t")
        assert j.find_sealed("admit", request=5) is None  # unsealed
        j.seal(seq)
        assert j.find_sealed("admit", request=5)["seq"] == seq
        assert j.find_applied("admit", request=5) is None
        j.mark_applied(seq, status="committed")
        assert j.find_sealed("admit", request=5)["seq"] == seq
        assert j.find_applied("admit", request=5)[1] == {"status": "committed"}

    def test_aborted_and_unsealed_never_match(self):
        j = CommitJournal()
        aborted = j.begin("block", block=1)
        j.abort(aborted, "gave up")
        j.begin("block", block=2)  # left open
        for block in (1, 2):
            assert j.find_sealed("block", block=block) is None
            assert j.find_applied("block", block=block) is None
            assert find_block_win(j, block) is None

    def test_unhashable_key_value_takes_the_scan(self):
        j = CommitJournal()
        seq = j.begin("block", block=[1, 2])
        j.seal(seq)
        j.mark_applied(seq, value=1)
        assert j.find_applied("block", block=[1, 2])[0]["seq"] == seq
        assert j.find_applied("block", block=[1]) is None

    def test_listings_are_in_seq_order_whatever_the_arrival_order(self):
        # a txn grouped on one thread reaches the ledger after a later
        # seq another thread flushed meanwhile
        j = CommitJournal()
        with j.group():
            early = record_block_win(j, 1, 0, _Winner(0, "fast", 1))
            helper = threading.Thread(
                target=lambda: record_block_win(j, 2, 0, _Winner(0, "fast", 2))
            )
            helper.start()
            helper.join(timeout=10)
        reopened = CommitJournal(MemoryJournalStorage(j.storage.load()))
        assert [r["seq"] for r in reopened.records() if r["t"] == "intent"] == [
            early + 1, early,
        ]
        for journal in (j, reopened):
            wins = [i["seq"] for i, _ in journal.applied_intents("block")]
            assert wins == [early, early + 1]

    def test_index_survives_snapshot_and_compaction(self):
        j = CommitJournal()
        for i in range(5):
            record_block_win(j, i, 0, _Winner(0, "fast", i * 3))
        j.snapshot()
        record_block_win(j, 5, 0, _Winner(0, "fast", 15))
        j.compact()
        record_block_win(j, 6, 0, _Winner(0, "fast", 18))
        reopened = CommitJournal(MemoryJournalStorage(j.storage.load()))
        assert reopened.restored_from_snapshot
        for journal in (j, reopened):
            for i in range(7):
                assert find_block_win(journal, i)["value"] == i * 3
            assert find_block_win(journal, 7) is None


def test_concurrent_appends_drop_no_index_entry():
    # worker threads index with no journal lock; keys shared between
    # threads (a block retried elsewhere) must keep every seq
    journal = CommitJournal()
    n_threads, per_thread, n_keys = 8, 400, 50
    batches = [
        [
            {
                "t": "intent", "seq": 1 + t * per_thread + i, "kind": "block",
                "data": {"block": (t + i) % n_keys},
            }
            for i in range(per_thread)
        ]
        for t in range(n_threads)
    ]
    start = threading.Barrier(n_threads)

    def index(batch):
        start.wait(timeout=10)
        for record in batch:
            journal._index(record)

    threads = [threading.Thread(target=index, args=(b,)) for b in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    by_key = {}
    for batch in batches:
        for record in batch:
            by_key.setdefault(record["data"]["block"], set()).add(record["seq"])
    for key, seqs in by_key.items():
        for seq in seqs:
            journal._index({"t": "seal", "seq": seq})
        assert journal.find_sealed("block", block=key)["seq"] == max(seqs)
        indexed = [
            journal._first_by_key["block"][key],
            *journal._later_by_key["block"][key],
        ]
        assert sorted(indexed) == sorted(seqs)


# -- cost is a count, not a timing -----------------------------------------
@dataclass
class _Winner:
    index: int
    name: str
    value: object


def _serve(journal, i):
    """One request's records, the cluster path's mix: admit intent+seal,
    block intent+seal+applied, admit applied."""
    txn = journal.begin(
        "admit", request=i, tenant=f"t{i % 8:08x}", priority=0, timeout=None,
        spec=None,
    )
    journal.seal(txn)
    record_block_win(journal, i, 0, _Winner(1, f"op{i}.1", (f"op{i}.1", i)))
    journal.mark_applied(txn, status="committed")


def _candidates_evaluated(journal, lookup):
    calls = []
    real = journal._matches
    journal._matches = lambda *a: calls.append(a) or real(*a)
    try:
        lookup()
    finally:
        del journal._matches
    return len(calls)


def test_lookup_cost_does_not_grow_with_the_journal():
    journal = CommitJournal()
    counts = {}
    served = 0
    for length in (100, 5000):
        for i in range(served, length):
            _serve(journal, i)
        served = length
        counts[length] = [
            _candidates_evaluated(journal, lookup) for lookup in (
                lambda: find_block_win(journal, length + 1),          # miss
                lambda: find_block_win(journal, length // 2),         # hit
                lambda: journal.find_sealed("admit", request=length + 1),
                lambda: journal.find_sealed("admit", request=length // 2),
            )
        ]
        assert find_block_win(journal, length // 2)["value"][1] == length // 2
    assert counts[100] == counts[5000]
    assert max(counts[5000]) <= 2


# -- the memory contract ---------------------------------------------------
def _traced(build):
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        gc.collect()
        return kept, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


#: ROADMAP's "journal ledger per request (reopened / live)" row: the
#: bytes a request's admit + block win keep resident, in B/request
REOPENED_CEILING, LIVE_CEILING = 1100, 1600


def test_reopened_journal_memory_per_request():
    n = 3000
    storage = MemoryJournalStorage()
    writer = CommitJournal(storage)
    for i in range(n):
        _serve(writer, i)

    reopened, held = _traced(lambda: CommitJournal(storage))
    # 4.7 KB/request before reopened records shared their top-level key
    # strings, 3.0 KB before they shared their data field names too, and
    # 2.2 KB before one compact entry per txn replaced the per-record
    # dicts and sets
    assert held / n <= REOPENED_CEILING, f"{held / n:.0f} B/request"
    intents = [i for kind in ("admit", "block") for i, _ in reopened.applied_intents(kind)]
    assert len(intents) == 2 * n
    shared = {id(key) for intent in intents for key in intent["data"]}
    assert len(shared) <= 16, "every record holds private copies of its field names"

    # records() is untouched by the sharing: every record, equal content
    assert reopened.records() == writer.records()
    assert len(reopened.records()) == 6 * n

    index_bytes = sum(
        sys.getsizeof(index)
        for by_key in (reopened._first_by_key, reopened._later_by_key)
        for index in by_key.values()
    )
    assert index_bytes / n <= 200, f"{index_bytes / n:.0f} B/request"
    assert find_block_win(reopened, n - 1)["value"] == (f"op{n - 1}.1", n - 1)


def test_live_journal_memory_per_request():
    # the writer's side of the same ledger: what a shard host holds live,
    # its storage's bytes (≈ 550 B/request) included
    n = 3000

    def serve_all():
        journal = CommitJournal(MemoryJournalStorage())
        for i in range(n):
            _serve(journal, i)
        return journal

    writer, held = _traced(serve_all)
    # 2.5 KB/request while each record kept its own dicts and sets
    assert held / n <= LIVE_CEILING, f"{held / n:.0f} B/request"
    assert len(writer.storage) / n < 600
    assert find_block_win(writer, n - 1)["value"] == (f"op{n - 1}.1", n - 1)


# -- nothing reaches the disk ----------------------------------------------
#: ``_drive`` run on the commit before the index existed (the parent of
#: this change), storage bytes as written.
PARENT_BYTES = bytes.fromhex(
    "4d574a524e4c310a660000007b95e6018005955b000000000000007d94288c017494"
    "8c06696e74656e74948c03736571944b018c046b696e64948c0561646d6974948c04"
    "64617461947d94288c0772657175657374944b078c0674656e616e74948c02743094"
    "8c087072696f72697479944b0075752e230000001fc10ca980059518000000000000"
    "007d94288c0174948c047365616c948c03736571944b01752e75000000ab24edee80"
    "05956a000000000000007d94288c0174948c06696e74656e74948c03736571944b02"
    "8c046b696e64948c05626c6f636b948c0464617461947d942868054b078c07617474"
    "656d7074944b008c0c77696e6e65725f696e646578944b018c0b77696e6e65725f6e"
    "616d65948c04736c6f779475752e350000008e186b958005952a000000000000007d"
    "94288c0174948c0561626f7274948c03736571944b028c06726561736f6e948c0572"
    "6574727994752e750000000a02188a8005956a000000000000007d94288c0174948c"
    "06696e74656e74948c03736571944b038c046b696e64948c05626c6f636b948c0464"
    "617461947d942868054b078c07617474656d7074944b018c0c77696e6e65725f696e"
    "646578944b008c0b77696e6e65725f6e616d65948c04666173749475752e23000000"
    "711588aa80059518000000000000007d94288c0174948c047365616c948c03736571"
    "944b03752e3a000000f40e979a8005952f000000000000007d94288c0174948c0761"
    "70706c696564948c03736571944b038c0464617461947d948c0576616c7565944b31"
    "73752e4500000009e71efa8005953a000000000000007d94288c0174948c07617070"
    "6c696564948c03736571944b018c0464617461947d948c06737461747573948c0963"
    "6f6d6d69747465649473752e4d57534e4150310a66010000f7e0e7a88005955b0100"
    "00000000007d94288c0a736e61705f696e646578944b018c086e6578745f73657194"
    "4b048c0966726f6e7469657273947d948c057265616473947d948c07696e74656e74"
    "73947d94284b017d94288c0174948c06696e74656e74948c03736571944b018c046b"
    "696e64948c0561646d6974948c0464617461947d94288c0772657175657374944b07"
    "8c0674656e616e74948c027430948c087072696f72697479944b0075754b037d9428"
    "680a680b680c4b03680d8c05626c6f636b94680f7d942868164b078c07617474656d"
    "7074944b018c0c77696e6e65725f696e646578944b008c0b77696e6e65725f6e616d"
    "65948c0466617374947575758c067365616c6564945d94284b014b03658c07617070"
    "6c696564947d94284b037d948c0576616c7565944b31734b017d948c067374617475"
    "73948c09636f6d6d69747465649473758c0761626f72746564945d944b02618c0872"
    "656c6561736564947d94752e66000000ab663a238005955b000000000000007d9428"
    "8c0174948c06696e74656e74948c03736571944b048c046b696e64948c0561646d69"
    "74948c0464617461947d94288c0772657175657374944b088c0674656e616e74948c"
    "027431948c087072696f72697479944b0175752e23000000f403c7af800595180000"
    "00000000007d94288c0174948c047365616c948c03736571944b04752e"
)


def _drive(journal):
    admit = journal.begin("admit", request=7, tenant="t0", priority=0)
    journal.seal(admit)
    lost = journal.begin(
        "block", block=7, attempt=0, winner_index=1, winner_name="slow",
    )
    journal.abort(lost, "retry")
    won = journal.begin(
        "block", block=7, attempt=1, winner_index=0, winner_name="fast",
    )
    journal.seal(won)
    journal.mark_applied(won, value=49)
    journal.mark_applied(admit, status="committed")
    journal.snapshot()
    later = journal.begin("admit", request=8, tenant="t1", priority=1)
    journal.seal(later)
    return admit, won, later


def _frames(raw):
    """Decode a journal image into ("rec"|"snap", unpickled body) pairs."""
    assert raw.startswith(MAGIC)
    out, offset = [], len(MAGIC)
    while offset < len(raw):
        tag = "rec"
        if raw.startswith(SNAP_MAGIC, offset):
            tag, offset = "snap", offset + len(SNAP_MAGIC)
        body_len, crc = _FRAME.unpack_from(raw, offset)
        body = raw[offset + _FRAME.size : offset + _FRAME.size + body_len]
        assert zlib.crc32(body) == crc
        out.append((tag, pickle.loads(body)))
        offset += _FRAME.size + body_len
    return out


def _image(frames):
    out = [MAGIC]
    for tag, obj in frames:
        body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        if tag == "snap":
            out.append(SNAP_MAGIC)
        out.append(_FRAME.pack(len(body), zlib.crc32(body)) + body)
    return b"".join(out)


def test_on_disk_format_is_the_parents():
    # parent -> change: the parent's bytes open, and the index finds
    # what the parent journalled (before and after its snapshot)
    opened = CommitJournal(MemoryJournalStorage(PARENT_BYTES))
    assert opened.restored_from_snapshot and opened.repaired_bytes == 0
    assert find_block_win(opened, 7) == {
        "winner_index": 0, "winner_name": "fast", "value": 49,
    }
    assert opened.find_sealed("admit", request=7)["data"]["tenant"] == "t0"
    assert opened.find_sealed("admit", request=8)["data"]["tenant"] == "t1"
    assert opened.find_applied("admit", request=8) is None

    # change -> parent: the same history writes the same frames — same
    # records, same key order, nothing added. The one difference: a
    # snapshot no longer writes the ``released`` eid table nothing ever
    # read (the parent's, carrying it, opened above all the same)
    storage = MemoryJournalStorage()
    _drive(CommitJournal(storage))
    written, parents = _frames(storage.load()), _frames(PARENT_BYTES)
    expected = [
        (tag, {k: v for k, v in obj.items() if (tag, k) != ("snap", "released")})
        for tag, obj in parents
    ]
    assert [obj for tag, obj in parents if tag == "snap"][0]["released"] == {}
    assert written == expected
    for (_, mine), (_, theirs) in zip(written, expected):
        assert list(mine) == list(theirs)
    # byte for byte, wherever this interpreter pickles the way the one
    # that wrote PARENT_BYTES did
    if _image(parents) == PARENT_BYTES:
        assert storage.load() == _image(expected)
