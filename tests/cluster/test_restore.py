"""ClusterRouter.restore: whole-cluster cold restart from shard journals.

The nastiest restart shape: requests died mid-flight on several shards,
some had already been taken over and committed on a *survivor* rather
than their home shard, some admits were duplicated by steal/re-land
races. Restore must cross-audit every journal — a durable block win
anywhere means replay, never re-run — deduplicate sealed admits, and
re-admit the rest under their original seqs.
"""

import time

from repro.cluster import ClusterRouter, ClusterShard
from repro.journal import CommitJournal, MemoryJournalStorage, find_block_win

from tests.jam import CrashJam


def build_alternatives(spec):
    n = spec["n"]

    def compute(ws):
        ws["n"] = n
        return n * 13

    return [compute]


def _cluster(storages, **shard_kwargs):
    shards = [
        ClusterShard(
            sid, slots=2, workers=2,
            journal=CommitJournal(storage=storage),
            journal_admission=True, **shard_kwargs,
        )
        for sid, storage in sorted(storages.items())
    ]
    return ClusterRouter(shards).start(detect=False)


def _jam(router):
    return CrashJam(shard.service for shard in router._shards.values())


def _reopen(storages):
    return {sid: CommitJournal(storage=s) for sid, s in sorted(storages.items())}


def test_restore_replays_committed_and_readmits_sealed():
    storages = {sid: MemoryJournalStorage() for sid in range(3)}
    router = _cluster(storages)
    jam = _jam(router)

    # half commit before the crash, half jam behind a blocked worker
    done = [
        router.submit(f"t{i}", build_alternatives({"n": i}), spec={"n": i})
        for i in range(3)
    ]
    committed = {t.seq: t.result(timeout=30) for t in done}
    assert all(r.committed for r in committed.values())
    jammed = []
    for i in range(3, 9):
        jammed.append(jam.submit(router.submit, "jam", spec={"n": i}))
    router.crash()

    restored, report = ClusterRouter.restore(
        _reopen(storages), build_alternatives=build_alternatives,
        shard_kwargs=dict(slots=2, workers=2), detect=False,
    )
    try:
        # committed-before-crash seqs are never re-run: either replayed
        # into report.results now, or left settled in the journals
        for seq, res in committed.items():
            if seq in report.results:
                assert report.results[seq].status == "committed"
                assert report.results[seq].value == res.value
            assert seq not in report.re_admitted
        # jammed seqs come back: replayed if their block raced to apply
        # before the crash, re-admitted (original seq) otherwise
        for t in jammed:
            covered = (
                t.seq in report.results
                or t.seq in report.tickets
                or t.seq in report.dropped
            )
            assert covered, f"request {t.seq} lost by restore"
            assert t.seq not in report.dropped, "spec'd requests are rebuildable"
            if t.seq in report.tickets:
                result = report.tickets[t.seq].result(timeout=30)
                assert result.seq == t.seq
        # cross-journal exactly-once audit
        audit = restored.audit_applied()
        for seq, count in audit.items():
            assert count <= 1, f"request {seq} applied {count} times"
        # fresh admissions never reuse a journalled seq
        floor_ticket = restored.submit(
            "t", build_alternatives({"n": 99}), spec={"n": 99}
        )
        assert floor_ticket.seq >= report.seq_floor
        assert floor_ticket.result(timeout=30).committed
    finally:
        restored.stop()


def test_takeover_survivor_win_is_never_rerun_by_restarted_home():
    storages = {sid: MemoryJournalStorage() for sid in range(3)}
    router = _cluster(storages)

    calls = []

    def build_counting(spec):
        n = spec["n"]

        def compute(ws):
            calls.append(n)
            return n * 13

        return [compute]

    # land a request, kill its home shard before the worker finishes,
    # and let takeover re-land it on a survivor — which commits it
    jam = _jam(router)
    ticket = jam.submit(router.submit, "victim", value=4 * 13, spec={"n": 4})
    time.sleep(0.05)
    with router._lock:
        home = router._inflight[ticket.seq].shard_id
    router.kill_shard(home)
    jam.open.set()
    router.takeover(home)
    result = ticket.result(timeout=30)
    assert result.committed
    assert result.shard_id != home, "the home's world failed; a survivor won"
    winner_sid = next(
        sid for sid, j in _reopen(storages).items()
        if find_block_win(j, ticket.seq) is not None
    )

    router.crash()
    calls.clear()
    restored, report = ClusterRouter.restore(
        _reopen(storages), build_alternatives=build_counting,
        shard_kwargs=dict(slots=2, workers=2), detect=False,
    )
    try:
        # the home shard's sealed admit is settled from the survivor's
        # durable win — replayed, not re-run
        assert ticket.seq in report.results
        replayed = report.results[ticket.seq]
        assert replayed.status == "committed"
        assert replayed.value == result.value, "byte-identical replay"
        assert replayed.failover == "replayed"
        assert replayed.shard_id == winner_sid
        assert ticket.seq not in report.re_admitted
        assert calls == [], "restore must not re-execute the block"
    finally:
        restored.stop()


def test_duplicate_sealed_admits_deduplicated_as_superseded():
    storages = {sid: MemoryJournalStorage() for sid in range(2)}
    # forge the post-crash shape a steal/re-land race leaves behind:
    # the same request sealed (unapplied) in two journals
    for sid, storage in storages.items():
        journal = CommitJournal(storage=storage)
        txn = journal.begin(
            "admit", request=5, tenant="dup", spec={"n": 5},
            priority=0, cost=1.0, timeout=None,
        )
        journal.seal(txn)

    restored, report = ClusterRouter.restore(
        _reopen(storages), build_alternatives=build_alternatives,
        shard_kwargs=dict(slots=2, workers=2), detect=False,
    )
    try:
        assert report.superseded == [5]
        assert report.re_admitted == [5], "one copy survives, one is cut"
        result = report.tickets[5].result(timeout=30)
        assert result.committed and result.value == 5 * 13
        audit = restored.audit_applied()
        assert audit.get(5) == 1, "exactly one applied block win"
    finally:
        restored.stop()


def test_fenced_shards_sealed_work_recovers_at_restart():
    """A fenced (false-positive-dead) shard's requests survive a cold
    restart exactly like a crashed shard's: sealed admits re-admitted,
    survivor wins replayed — fencing must not strand durable work."""
    storages = {sid: MemoryJournalStorage() for sid in range(3)}
    router = _cluster(storages)
    jammer = _jam(router)
    jam = [jammer.submit(router.submit, "jam", spec={"n": i}) for i in range(4)]
    # excommunicate every shard that holds work (partition false positive)
    with router._lock:
        holding = {router._inflight[t.seq].shard_id for t in jam}
    for sid in holding:
        router._shards[sid].fence()
    router.crash()

    restored, report = ClusterRouter.restore(
        _reopen(storages), build_alternatives=build_alternatives,
        shard_kwargs=dict(slots=2, workers=2), detect=False,
    )
    try:
        for t in jam:
            assert (
                t.seq in report.results or t.seq in report.tickets
            ), f"fenced shard stranded request {t.seq}"
            if t.seq in report.tickets:
                assert report.tickets[t.seq].result(timeout=30).seq == t.seq
        for seq, count in restored.audit_applied().items():
            assert count <= 1, (seq, count)
    finally:
        restored.stop()
