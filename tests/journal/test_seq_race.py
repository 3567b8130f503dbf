"""Two threads must never be handed the same txn seq.

``CommitJournal`` is appended by service workers, the submit path and a
shard host's connection thread without serialising on the journal, so the
seq allocation in ``begin`` and the counter bump in ``_index`` (which
could move the counter *backwards*) must each be atomic. A collision
overwrites the earlier txn's intent, and a block whose intent is gone is
unfindable by ``find_applied`` live and after reopen: an acked request
"applied 0 times".
"""

import os
import sys
import threading

import pytest

from repro.errors import JournalError
from repro.journal import CommitJournal, MemoryJournalStorage

#: txns per thread in the stress; CI's fuzz-smoke step asks for more
RACE_TXNS = int(os.environ.get("JOURNAL_RACE_TXNS", "3000"))


class _YieldingJournal(CommitJournal):
    """A journal whose ``_next_seq`` read can be made to lose the CPU.

    The ``arm_at``-th read of the counter runs ``intruder`` — a whole
    ``begin`` on another thread — before it returns the value it read,
    which is exactly the interleave a thread switch between the read and
    the write-back produces.
    """

    reads_until_yield = 0
    intruder = None

    @property
    def _next_seq(self):
        value = self.__dict__["_next_seq_value"]
        if self.reads_until_yield:
            self.reads_until_yield -= 1
            if not self.reads_until_yield:
                self.intruder()
        return value

    @_next_seq.setter
    def _next_seq(self, value):
        self.__dict__["_next_seq_value"] = value


@pytest.mark.parametrize("yield_at_read", [1, 2, 3])
def test_a_switch_between_counter_read_and_write_hands_out_no_seq_twice(yield_at_read):
    journal = _YieldingJournal()
    seqs = []

    def intrude():
        # a second thread's whole begin(); where the counter is guarded it
        # blocks until the interrupted thread is done, so don't wait for it
        thread = threading.Thread(
            target=lambda: seqs.append(journal.begin("block", block="intruder"))
        )
        thread.start()
        thread.join(timeout=0.2)
        intruders.append(thread)

    intruders = []
    journal.intruder = intrude
    journal.reads_until_yield = yield_at_read
    seqs.append(journal.begin("block", block="interrupted"))
    for thread in intruders:
        thread.join(timeout=10)
    seqs.append(journal.begin("block", block="afterwards"))

    assert len(intruders) == 1, "the interleave was never forced"
    assert len(seqs) == 3 and len(set(seqs)) == 3, seqs
    # and no intent was overwritten by a later one under the same seq
    assert journal.unsealed_txns() == sorted(seqs)
    assert {journal.intent(seq)["data"]["block"] for seq in seqs} == {
        "interrupted", "intruder", "afterwards",
    }


def test_threads_looping_whole_txns_get_unique_seqs_and_every_block_is_findable():
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage)
    n_threads = 5
    seqs = [[] for _ in range(n_threads)]
    errors = []
    start = threading.Barrier(n_threads)

    def loop(t):
        start.wait(timeout=10)
        try:
            for i in range(RACE_TXNS):
                seq = journal.begin("block", block=(t, i), attempt=0)
                journal.seal(seq)
                journal.mark_applied(seq, value=i)
                seqs[t].append(seq)
        except JournalError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(t,)) for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    assert errors == []
    handed_out = [seq for per_thread in seqs for seq in per_thread]
    assert len(handed_out) == n_threads * RACE_TXNS
    assert len(set(handed_out)) == len(handed_out), "a txn seq was handed out twice"
    assert journal.records_since_snapshot() == 3 * len(handed_out)
    for ledger in (journal, CommitJournal(MemoryJournalStorage(storage.load()))):
        for t in range(n_threads):
            for i in range(RACE_TXNS):
                found = ledger.find_applied("block", block=(t, i))
                assert found is not None, f"block {(t, i)} applied 0 times"
                assert found[1]["value"] == i
