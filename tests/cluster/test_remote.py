"""Out-of-process shards: real processes, framed RPC, SIGKILL failover.

Everything here spawns actual shard-host processes (fork + Unix socket),
so "shard death" is a literal ``kill -9`` and the only survivor is the
journal *file* — the strongest version of the failover claim the
in-process tests make.
"""

import functools
import os
import threading
import time

import pytest

from repro.cluster import (
    ClusterRouter,
    ClusterShard,
    RemoteShardClient,
    ShardState,
)
from repro.cluster.router import MISS_THRESHOLD
from repro.distrib.retry import RetryStats
from repro.errors import ClusterError, ShardUnreachable, WorldsError
from repro.faults.plan import TRANSPORT_SITE, FaultKind, FaultPlan
from repro.serve import ServeRequest, admission
from tests.cluster.test_router import timeouts_readmitted


def val(ws, i=0):
    time.sleep(0.002)
    return i * 7


def alts(i):
    # remote alternatives cross a process boundary: partials of a
    # module-level function, never closures (closures don't pickle)
    return [functools.partial(val, i=i)]


def admit(shard, tenant, alternatives):
    """Hand the shard one request, as the router does; returns its ticket."""
    return shard.admit(ServeRequest.build(tenant, alternatives))


def slow_val(ws, i=0):
    time.sleep(0.15)
    return i * 7


def slow_alts(i):
    # slow enough that a kill issued right after the submits lands while
    # most requests are still mid-flight: 8 x 0.15 s on 4 total worker
    # slots needs >=2 rounds, so the fleet cannot drain first and the
    # failover path under test is guaranteed to run
    return [functools.partial(slow_val, i=i)]


def make_remote(shard_id, tmp_path, **kw):
    kw.setdefault("workdir", str(tmp_path / f"shard-{shard_id}"))
    kw.setdefault("slots", 2)
    kw.setdefault("workers", 2)
    return RemoteShardClient(shard_id, **kw)


def no_dangling_threads(*names):
    living = {t.name for t in threading.enumerate()}
    return not living.intersection(names)


def answer(ws, word):
    return word


class TestLifecycle:
    def test_a_fresh_router_over_a_used_workdir_runs_its_own_request(
        self, tmp_path, monkeypatch
    ):
        """A new router process (a fresh seq counter) over the journal a
        previous one left must not hand seq 1 out again and replay its win."""
        results = []
        for word in ("first", "second"):
            monkeypatch.setattr(admission, "_seq", admission._SeqCounter())
            router = ClusterRouter([make_remote(0, tmp_path)]).start(detect=False)
            try:
                ticket = router.submit("t", [functools.partial(answer, word=word)])
                results.append(ticket.result(30))
            finally:
                router.stop()
        assert [(r.value, r.replayed) for r in results] == [
            ("first", False), ("second", False),
        ]

    def test_start_ping_stop(self, tmp_path):
        shard = make_remote(0, tmp_path)
        shard.start()
        try:
            assert shard.process_alive()
            assert shard.pid is not None and shard.pid != os.getpid()
            assert shard.answers_heartbeat()
            assert shard.state is ShardState.UP
            snap = shard.snapshot()
            assert snap["remote"] is True and snap["pid"] == shard.pid
        finally:
            shard.stop()
        assert not shard.process_alive()
        assert shard.state is ShardState.DEAD
        assert os.path.exists(shard.journal_path)

    def test_submit_resolves_and_journals(self, tmp_path):
        shard = make_remote(0, tmp_path)
        shard.start()
        try:
            ticket = admit(shard, "t0", alts(3))
            result = ticket.result(timeout=10)
            assert result.seq == ticket.seq
            assert result.status == "committed"
            assert result.outcome.winner.value == 21
        finally:
            shard.stop()
        # the journal FILE carries the applied block — kill-proof truth
        applied = [
            i["data"]["block"] for i, _ in shard.journal.applied_intents("block")
        ]
        assert applied == [ticket.seq]

    def test_stopped_tickets_leave_the_table(self, tmp_path):
        # a stopping host serves its backlog first; a dead one pushes
        # nothing more, so no ticket outlives it in the table
        shard = make_remote(0, tmp_path, slots=1, workers=1)
        shard.start()
        try:
            tickets = [admit(shard, "t0", slow_alts(i)) for i in range(4)]
        finally:
            shard.stop()
        assert shard._tickets == {}
        assert all(t.done for t in tickets)

    def test_crash_is_sigkill_grade(self, tmp_path):
        shard = make_remote(0, tmp_path)
        shard.start()
        pid = shard.pid
        shard.crash()
        assert not shard.process_alive()
        assert shard.state is ShardState.DEAD
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        with pytest.raises(ShardUnreachable):
            admit(shard, "t0", alts(1))

    def test_restart_bumps_incarnation(self, tmp_path):
        shard = make_remote(0, tmp_path)
        shard.start()
        assert shard.incarnation == 0
        shard.sigkill()
        shard.start()
        try:
            assert shard.incarnation == 1
            assert shard.answers_heartbeat()
        finally:
            shard.stop()


class TestRemoteCluster:
    def test_remote_burst_commits_exactly_once(self, tmp_path):
        remotes = [make_remote(i, tmp_path) for i in range(2)]
        router = ClusterRouter(remotes).start()
        try:
            tickets = [router.submit(f"t{i % 4}", alts(i)) for i in range(12)]
            results = [t.result(timeout=30) for t in tickets]
            assert all(r.committed for r in results)
            for i, r in enumerate(results):
                assert r.value == i * 7
            audit = router.audit_applied()
            assert all(audit.get(r.seq, 0) == 1 for r in results)
        finally:
            router.stop()
        assert all(not r.process_alive() for r in remotes)

    def test_a_burst_shadow_in_a_host_writes_nothing_durable(self, tmp_path):
        """A host is forked from the router and inherits its seq counter, so
        a REQUEST_BURST shadow's seqs are the router's next ones: a shadow
        that journalled its win made a later request replay that value."""
        plan = FaultPlan(seed=1, rates={FaultKind.REQUEST_BURST: 1.0})
        remote = make_remote(0, tmp_path, host_fault_plan=plan)
        router = ClusterRouter([remote]).start(detect=False)
        try:
            tickets = [router.submit(f"t{i % 4}", alts(i)) for i in range(8)]
            results = [t.result(timeout=30) for t in tickets]
            assert [r.value for r in results] == [i * 7 for i in range(8)]
            assert not any(r.replayed for r in results)
            assert router.audit_applied() == {r.seq: 1 for r in results}
        finally:
            router.stop()

    def test_local_and_remote_mix_in_one_ring(self, tmp_path):
        shards = [ClusterShard(0, slots=2, workers=2), make_remote(1, tmp_path)]
        router = ClusterRouter(shards).start(detect=False)
        try:
            tickets = [router.submit(f"t{i % 5}", alts(i)) for i in range(10)]
            results = [t.result(timeout=30) for t in tickets]
            assert all(r.committed for r in results)
            audit = router.audit_applied()
            assert all(audit.get(r.seq, 0) == 1 for r in results)
        finally:
            router.stop()

    def test_a_request_queued_on_a_killed_local_shard_relands_remote(self, tmp_path):
        """The request still holds the dead local service's ticket when it
        re-lands: only its durable and wire fields cross to the host."""
        local = ClusterShard(0, slots=1, workers=1)
        router = ClusterRouter(
            [local, make_remote(1, tmp_path)], spill=False
        ).start(detect=False)
        try:
            tenant = next(
                t for t in (f"t{i}" for i in range(100)) if router.ring.route(t) == 0
            )
            first = router.submit(tenant, slow_alts(1))
            deadline = time.monotonic() + 10
            while local.budget.free and time.monotonic() < deadline:
                time.sleep(0.001)
            second = router.submit(tenant, alts(2))
            assert len(local.queue) == 1
            router.kill_shard(0)
            router.takeover(0)
            result = second.result(timeout=30)
            assert result.committed and result.value == 14
            assert result.shard_id == 1 and result.failover == "relanded"
            assert first.result(timeout=30).committed
        finally:
            router.stop()

    def test_sigkill_mid_burst_fails_over(self, tmp_path):
        remotes = [make_remote(i, tmp_path, call_timeout_s=0.5) for i in range(3)]
        router = ClusterRouter(remotes).start()
        try:
            tickets = []
            for i in range(18):
                tickets.append(router.submit(f"t{i % 6}", alts(i)))
                if i == 8:
                    remotes[1].sigkill()  # real kill -9, detector must notice
            results = [t.result(timeout=30) for t in tickets]
            assert all(r.committed for r in results), [
                (r.status, r.reason) for r in results if not r.committed
            ]
            audit = router.audit_applied()
            doubles = {s: c for s, c in audit.items() if c > 1}
            assert not doubles, f"double commits: {doubles}"
            assert all(audit.get(r.seq, 0) == 1 for r in results)
        finally:
            router.stop()

    def test_admit_of_unknown_outcome_is_fenced_before_walking_on(self, tmp_path):
        """A frozen home host takes the submit frame into its socket
        buffer and says nothing. The request may leave it only through
        its ledger: the host is taken over (crashed, SIGKILLed) *before*
        the walk goes on — on the parent it was left alive, ran the
        buffered request when thawed, and the block applied twice."""
        remotes = [make_remote(i, tmp_path, call_timeout_s=0.2) for i in range(2)]
        router = ClusterRouter(remotes, spill=False).start(detect=False)
        try:
            home = router.ring.route("t0")
            remotes[home].sigstop()
            result = router.submit("t0", alts(3)).result(timeout=30)
            assert result.committed and result.value == 21
            assert result.shard_id == 1 - home
            remotes[home].sigcont()
            time.sleep(0.5)  # room for a thawed host to run what it buffered
            assert router.audit_applied()[result.seq] == 1
            snap = router.snapshot()
            assert home not in {m["shard"] for m in snap["members"]}
            assert home in snap["retired"]
            assert not remotes[home].process_alive()
            assert snap["inflight"] == 0
        finally:
            router.stop()

    def test_invalid_alternatives_register_nothing(self, tmp_path):
        router = ClusterRouter([make_remote(0, tmp_path)]).start(detect=False)
        try:
            for bad in ([42], []):
                with pytest.raises(WorldsError):
                    router.submit("t0", bad)
            assert router.snapshot()["inflight"] == 0
        finally:
            router.stop()

    def test_timeout_survives_sigkill_and_restore(self, tmp_path):
        """router -> host process -> sealed admit on disk -> SIGKILL ->
        ``ClusterRouter.restore`` -> the re-admitted request."""
        remote = make_remote(0, tmp_path, slots=3)
        router = ClusterRouter([remote]).start(detect=False)
        try:
            parked = [functools.partial(slow_val, i=i) for i in range(3)]
            ticket = router.submit("t0", parked, timeout=30.0, spec={"i": 6})
            remote.sigkill()  # mid-run: the admit is sealed, nothing applied
        finally:
            router.crash()
        (intent,) = remote.journal.sealed_unapplied_intents("admit")
        assert intent["data"]["request"] == ticket.seq
        assert intent["data"]["timeout"] == 30.0
        readmitted = {}
        restored, report = timeouts_readmitted(readmitted).restore(
            {0: remote.journal},
            build_alternatives=lambda spec: [
                functools.partial(val, i=spec["i"]) for _ in range(3)
            ],
            shard_kwargs=dict(slots=3, workers=1), detect=False,
        )
        try:
            result = report.tickets[ticket.seq].result(timeout=10)
        finally:
            restored.stop()
        assert result.committed and result.value == 42
        assert readmitted == {ticket.seq: 30.0}, "timeout was lost on the way"


class _YieldingClient(RemoteShardClient):
    """A client whose ``_call_seq`` read can be made to lose the CPU (the
    forced interleave of ``tests/journal/test_seq_race.py``): the first
    read runs ``intruder`` — a whole ``_call`` on another thread — before
    it returns what it read."""

    intruder = None

    @property
    def _call_seq(self):
        value = self.__dict__["_call_seq_value"]
        intruder, self.intruder = self.intruder, None
        if intruder is not None:
            intruder()
        return value

    @_call_seq.setter
    def _call_seq(self, value):
        self.__dict__["_call_seq_value"] = value


def test_a_switch_mid_draw_hands_no_call_number_out_twice(tmp_path, monkeypatch):
    """The call number is the idempotency token and the envelope id: two
    callers sharing one would be answered with each other's responses."""
    tokens = []

    def answered_at_once(attempt, policy, token, retry_on):
        tokens.append(token)
        return {"ok": True, "value": None}, RetryStats(attempts=1)

    monkeypatch.setattr("repro.cluster.remote.call_with_retries", answered_at_once)
    client = _YieldingClient(0, workdir=str(tmp_path))
    intruders = []

    def intrude():
        thread = threading.Thread(target=client._call, args=("ping",))
        thread.start()
        thread.join(timeout=10)
        intruders.append(thread)

    client.intruder = intrude
    client._call("ping")  # interrupted between reading and advancing
    client._call("ping")
    assert len(intruders) == 1 and not intruders[0].is_alive()
    assert len(tokens) == 3 and len(set(tokens)) == 3, tokens


def misses(router):
    """Each member's consecutive missed beats, as the router reports them."""
    return {m["shard"]: m["misses"] for m in router.snapshot()["members"]}


class TestBrownout:
    """A silent host has one failure state, the router's miss count:
    nothing on the client fails fast or keeps a count of its own."""

    def test_a_frozen_host_is_suspected_thawed_and_taken_over_by_beats(
        self, tmp_path
    ):
        remotes = [make_remote(i, tmp_path) for i in range(2)]
        router = ClusterRouter(remotes, spill=False).start(detect=False)
        try:
            home = router.ring.route("t0")
            frozen = remotes[home]
            router.heartbeat_round()
            assert misses(router) == {home: 0, 1 - home: 0}

            frozen.sigstop()
            router.heartbeat_round()
            assert misses(router) == {home: 1, 1 - home: 0}

            frozen.sigcont()
            router.heartbeat_round()
            assert misses(router) == {home: 0, 1 - home: 0}

            frozen.sigstop()
            for _ in range(MISS_THRESHOLD):
                assert home in {m["shard"] for m in router.snapshot()["members"]}
                router.heartbeat_round()
            snap = router.snapshot()
            assert home not in {m["shard"] for m in snap["members"]}
            assert home in snap["retired"]
            assert not frozen.process_alive()
            with pytest.raises(ChildProcessError):
                os.waitpid(frozen.pid, os.WNOHANG)  # reaped, not a zombie

            result = router.submit("t0", alts(3)).result(timeout=30)
            assert result.committed and result.value == 21
            assert result.shard_id == 1 - home
            assert router.audit_applied()[result.seq] == 1
        finally:
            router.stop()

    def test_a_beat_on_a_frozen_host_writes_no_shard_state(self, tmp_path):
        """The router's suspicion is its miss count, never the shard's
        state: only the shard writes that."""
        frozen = make_remote(0, tmp_path)
        router = ClusterRouter([frozen]).start(detect=False)
        try:
            frozen.sigstop()
            router.heartbeat_round()
            assert frozen.state is ShardState.UP
            assert misses(router)[0] == 1
            frozen.sigcont()
            router.heartbeat_round()
            assert frozen.state is ShardState.UP
            assert misses(router)[0] == 0
        finally:
            router.stop()


class TestCrash:
    def test_crash_of_a_frozen_host_kills_it_without_an_rpc(self, tmp_path):
        """SIGKILL and reap are the only kill. A frozen host answers no
        RPC, so a crash that asked it first would wait out a whole
        ``call_timeout_s`` on the detector thread."""
        shard = make_remote(0, tmp_path)
        shard.start()
        try:
            pid = shard.pid
            shard.sigstop()
            started = time.monotonic()
            shard.crash()
            elapsed = time.monotonic() - started
            assert shard.state is ShardState.DEAD
            assert not shard.process_alive()
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        finally:
            shard.stop()
        assert elapsed < shard.call_timeout_s / 4, elapsed

    def test_a_fence_op_is_unknown_to_the_host(self, tmp_path):
        shard = make_remote(0, tmp_path)
        shard.start()
        try:
            with pytest.raises(ClusterError, match="unknown RPC op 'fence'"):
                shard._call("fence")
            assert shard.answers_heartbeat()
            assert shard.state is ShardState.UP
        finally:
            shard.stop()


def test_a_submit_to_an_idle_remote_shard_makes_one_rpc(tmp_path, monkeypatch):
    """The router places by its own count of outstanding requests, so a
    submit asks no host for its load, however long the shard sat idle."""
    remotes = [make_remote(i, tmp_path) for i in range(2)]
    ops = []
    call = RemoteShardClient._call

    def counted(self, op, *args, **kwargs):
        ops.append(op)
        return call(self, op, *args, **kwargs)

    router = ClusterRouter(remotes).start(detect=False)
    try:
        assert router.submit("t0", alts(1)).result(timeout=30).value == 7
        members = router.snapshot()["members"]
        assert [m["outstanding"] for m in members] == [0, 0]
        time.sleep(0.03)
        monkeypatch.setattr(RemoteShardClient, "_call", counted)
        assert router.submit("t0", alts(2)).result(timeout=30).value == 14
        submitted = list(ops)
    finally:
        router.stop()
    assert submitted == ["admit"]


class TestTransportFaults:
    def test_torn_frames_are_retried_through(self, tmp_path):
        plan = FaultPlan(seed=11, rates={FaultKind.TORN_FRAME: 0.3})
        shard = make_remote(0, tmp_path, fault_plan=plan)
        shard.start()
        try:
            tickets = [admit(shard, f"t{i % 3}", alts(i)) for i in range(10)]
            seqs = [t.seq for t in tickets]
            assert [t.result(timeout=20).seq for t in tickets] == seqs
        finally:
            shard.stop()
        torn = [r for r in plan.injections if r["kind"] == "torn-frame"]
        assert torn, "the plan must actually have torn frames"
        applied = [
            i["data"]["block"] for i, _ in shard.journal.applied_intents("block")
        ]
        assert sorted(applied) == sorted(seqs)  # exactly once despite resends

    def test_socket_stall_rides_timeout_and_dedup(self, tmp_path):
        # stalls longer than the per-call timeout force resends; the
        # host's idempotency cache must keep submits single-execution
        plan = FaultPlan(
            seed=7, rates={FaultKind.SOCKET_STALL: 0.25}, socket_stall_s=0.35,
        )
        shard = make_remote(0, tmp_path, fault_plan=plan, call_timeout_s=0.15)
        shard.start()
        try:
            tickets = [admit(shard, f"t{i % 3}", alts(i)) for i in range(8)]
            seqs = [t.seq for t in tickets]
            assert [t.result(timeout=30).seq for t in tickets] == seqs
        finally:
            shard.stop()
        stalls = [r for r in plan.injections if r["kind"] == "socket-stall"]
        assert stalls, "the plan must actually have stalled"
        applied = [
            i["data"]["block"] for i, _ in shard.journal.applied_intents("block")
        ]
        assert sorted(applied) == sorted(seqs), "a resend double-executed"

    def test_reset_replays_unacked_pushes_exactly_once(self, tmp_path):
        # resolve pushes lost in flight stay in the host's outbox (never
        # acked); the connection after a reset must replay every one of
        # them, once, and an acked event must never come back. Frames are
        # counted where they arrive: the ticket table alone would hide a
        # duplicate
        shard = make_remote(0, tmp_path)
        shard.start()
        lost, frames, acked = [], [], []
        dispatch = shard._dispatch_push

        def counted(sock, msg):
            frames.append(msg["event"])
            dispatch(sock, msg)  # resolves the ticket, then acks
            acked.append(msg["event"])

        def wait_for(events, n):
            deadline = time.monotonic() + 20
            while len(events) < n and time.monotonic() < deadline:
                time.sleep(0.02)

        shard._dispatch_push = lambda sock, msg: lost.append(msg["event"])
        try:
            tickets = [admit(shard, f"t{i % 3}", alts(i)) for i in range(6)]
            wait_for(lost, 6)
            assert sorted(lost) == list(range(1, 7))
            assert not any(t.done for t in tickets)

            shard._dispatch_push = counted
            shard._drop_conn(ConnectionResetError("reset"))  # seen by both ends
            deadline = time.monotonic() + 20
            while not shard.answers_heartbeat():  # reconnects
                assert time.monotonic() < deadline
            wait_for(acked, 6)
            assert [t.result(timeout=0).seq for t in tickets] == [
                t.seq for t in tickets
            ]

            # all acked now: another reset replays nothing old
            shard._drop_conn(ConnectionResetError("reset"))
            tickets.append(admit(shard, "t0", alts(9)))
            assert tickets[-1].result(timeout=20).committed
            wait_for(acked, 7)
            time.sleep(0.2)  # room for a stray duplicate to show up
            assert sorted(frames) == list(range(1, 8))
        finally:
            shard.stop()
        assert shard._tickets == {}

    def test_connect_refused_beats_fail_but_recover(self, tmp_path):
        # seed 3 refuses beats 13-15, 20, 26, 28: each refused beat is a
        # miss for the router to count, and the next beat lands again
        plan = FaultPlan(seed=3, rates={FaultKind.CONNECT_REFUSED: 0.3})
        shard = make_remote(0, tmp_path, fault_plan=plan)
        shard.start()
        try:
            beats = [shard.answers_heartbeat() for _ in range(30)]
            assert sum(beats) >= 20, "most beats must land"
            assert not all(beats), "some beats must be refused"
        finally:
            shard.stop()
        refused = [r for r in plan.injections if r["kind"] == "connect-refused"]
        assert refused, "the plan must actually have refused connects"


class TestDetectorHygiene:
    """stop() must reap the detector thread."""

    def test_stop_joins_detector_thread(self, tmp_path):
        router = ClusterRouter([ClusterShard(0, slots=2, workers=2)]).start()
        assert any(
            t.name == "cluster-detector" for t in threading.enumerate()
        )
        router.stop()
        assert router._detector is None
        assert no_dangling_threads("cluster-detector")
        router.stop()  # a second stop is a no-op
        assert router._detector is None
        assert no_dangling_threads("cluster-detector")

    def test_stop_with_remote_members_leaves_no_threads(self, tmp_path):
        remotes = [make_remote(i, tmp_path) for i in range(2)]
        router = ClusterRouter(remotes).start()
        router.submit("t0", alts(1)).result(timeout=30)
        router.stop()
        assert no_dangling_threads("cluster-detector")
        assert all(not r.process_alive() for r in remotes)
