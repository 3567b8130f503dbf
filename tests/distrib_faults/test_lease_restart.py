"""RemoteWorldLease restart edges: successor crashes, fenced originals.

Two shapes the durable-restart layer leans on: (1) a takeover successor
that itself dies mid-replay must be takeover-able again without forking
the work, and (2) an original holder that was fenced (false-positive
death declaration) and later restarts must observe the fence — a late
heartbeat must not resurrect its lease, and a late result must not
commit or re-land.
"""

import time

import pytest

from repro.cluster import ClusterRouter, ClusterShard
from repro.errors import NetworkError
from repro.journal import CommitJournal, MemoryJournalStorage

from netmodel.lease import LeaseState, RemoteWorldLease
from tests.jam import CrashJam


class TestSuccessorCrashMidReplay:
    def test_second_takeover_continues_the_lineage(self):
        lease = RemoteWorldLease(lease_id=7, node_id=2, term_s=0.8)
        lease.declare_dead(0.4, "holder crashed")
        first = lease.takeover(0.5, new_node_id=9)
        # the successor dies while replaying the predecessor's work
        first.miss(0.7, "mid-replay crash")
        first.declare_dead(0.9, "successor crashed mid-replay")
        second = first.takeover(1.0, new_node_id=11)
        assert second.state is LeaseState.ACTIVE
        assert second.lease_id == 7
        assert second.node_id == 11
        # timing knobs survive two hops
        assert second.term_s == 0.8
        # both handoffs are auditable from the predecessors' logs
        assert "takeover" in lease.event_names
        assert "takeover" in first.event_names
        second.complete(1.2)

    def test_dead_successors_late_result_rejected(self):
        lease = RemoteWorldLease(lease_id=7, node_id=2)
        lease.declare_dead(0.3, "holder crashed")
        first = lease.takeover(0.4, new_node_id=9)
        first.declare_dead(0.6, "successor crashed mid-replay")
        first.takeover(0.7, new_node_id=11)
        # the first successor's process comes back and tries to finish:
        # its lease is settled, the result must not commit
        with pytest.raises(NetworkError, match="must not commit"):
            first.complete(0.8)

    def test_shard_successor_crash_commits_exactly_once(self):
        """Cluster-level: home dies unserved, the re-land successor dies
        mid-run, a second takeover finishes — one applied block win."""
        storages = {sid: MemoryJournalStorage() for sid in range(3)}
        shards = [
            ClusterShard(
                sid, slots=2, workers=2,
                journal=CommitJournal(storage=storages[sid]),
                journal_admission=True,
            )
            for sid in range(3)
        ]
        router = ClusterRouter(shards).start(detect=False)
        jam = CrashJam(shard.service for shard in shards)
        try:
            ticket = jam.submit(router.submit, "t", value=42, spec={"n": 1})
            time.sleep(0.05)
            with router._lock:
                home = router._inflight[ticket.seq].shard_id
            router.kill_shard(home)
            router.takeover(home)  # re-lands on a successor shard
            time.sleep(0.05)
            with router._lock:
                successor = router._inflight[ticket.seq].shard_id
            assert successor != home
            router.kill_shard(successor)
            router.takeover(successor)  # second hop
            jam.open.set()
            result = ticket.result(timeout=30)
            assert result.committed
            assert result.value == 42
            assert result.shard_id not in (home, successor)
            audit = router.audit_applied()
            assert audit.get(ticket.seq) == 1, "exactly one applied win"
        finally:
            jam.open.set()
            router.stop()


class TestFencedOriginalRestart:
    def test_late_heartbeat_does_not_resurrect_a_dead_lease(self):
        lease = RemoteWorldLease(lease_id=3, node_id=2)
        lease.miss(0.1)
        lease.miss(0.2)
        lease.declare_dead(0.3, "partition false positive")
        successor = lease.takeover(0.4, new_node_id=5)
        # the fenced original restarts and heartbeats again: the lease
        # must stay DEAD — reviving it would fork the work with the
        # successor
        lease.renew(0.5)
        assert lease.state is LeaseState.DEAD
        assert not lease.alive
        assert successor.alive

    def test_restarted_original_must_not_reland_its_result(self):
        lease = RemoteWorldLease(lease_id=3, node_id=2)
        lease.declare_dead(0.3, "partition false positive")
        lease.reclaim(0.3)
        lease.takeover(0.4, new_node_id=5)
        # the restarted original observes it was fenced: completing (the
        # re-land of its computed result) is a protocol error
        with pytest.raises(NetworkError, match="must not commit"):
            lease.complete(0.6)
        assert lease.state is LeaseState.RECLAIMED

    def test_fenced_shard_never_resolves_after_restart_boundary(self):
        """A live shard a takeover killed reports nothing; only the
        journal speaks for it at the next restart."""
        journal = CommitJournal(storage=MemoryJournalStorage())
        shard = ClusterShard(
            0, slots=1, workers=1, journal=journal, journal_admission=True
        )
        shard.service.start()
        ticket = CrashJam([shard.service]).submit(
            shard.service.submit, "t", spec={"n": 1}
        )
        shard.crash()
        # the killed process must not resolve the ticket...
        assert not ticket.done
        # ...but the durable ack survives for the next restore
        sealed = journal.sealed_unapplied_intents("admit")
        assert [i["data"]["request"] for i in sealed] == [ticket.seq]
