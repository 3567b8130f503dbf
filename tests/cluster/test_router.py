"""The cluster router: placement, spill/steal, decommission, failover."""

import dataclasses
import threading
import time

import pytest

from repro.cluster import ClusterRouter, ClusterShard, ShardState
from repro.cluster import router as router_module
from repro.core.backend import normalize_alternatives
from repro.core.outcome import AlternativeResult
from repro.errors import (
    AdmissionRejected,
    ClusterError,
    JournalCrash,
    NoSurvivingShard,
    ServiceStopped,
    ShardUnreachable,
    WorldsError,
)
from repro.faults.plan import CLUSTER_SITE, FaultKind, FaultPlan
from repro.journal import CommitJournal, MemoryJournalStorage, record_block_win
from repro.obs import Observability
from repro.serve import AdaptiveSpeculationPolicy

from tests.jam import CrashJam


def value_alts(i):
    def alt(ws):
        return i

    return [alt]


def slow_alt(duration_s=0.15):
    def slow(ws):
        time.sleep(duration_s)
        return "slow"

    return [slow]


def make_router(n=3, slots=2, workers=2, **kw):
    shards = [ClusterShard(i, slots=slots, workers=workers) for i in range(n)]
    return ClusterRouter(shards, **kw)


class TestPlacement:
    def test_requests_route_by_ring_and_commit(self):
        with make_router(3).start(detect=False) as router:
            tickets = [
                router.submit(f"tenant-{i % 5}", value_alts(i)) for i in range(15)
            ]
            results = [t.result(timeout=10) for t in tickets]
        assert all(r.committed for r in results)
        assert {r.value for r in results} == set(range(15))
        # placement followed the ring (no failover happened)
        for r in results:
            assert r.shard_id == router.ring.route(r.tenant)
            assert r.failover == ""

    def test_submit_requires_running_cluster(self):
        router = make_router(2)
        with pytest.raises(ServiceStopped):
            router.submit("t", value_alts(1))

    def test_duplicate_shard_ids_rejected(self):
        with pytest.raises(ClusterError):
            ClusterRouter([ClusterShard(1), ClusterShard(1)])

    def test_no_surviving_shard_surfaces(self):
        router = make_router(1).start(detect=False)
        router.kill_shard(0)
        router.takeover(0)
        with pytest.raises(NoSurvivingShard):
            router.submit("t", value_alts(1))
        router.stop()

    def test_audit_counts_every_commit_once(self):
        with make_router(3).start(detect=False) as router:
            results = [
                router.submit(f"t{i % 4}", value_alts(i)).result(timeout=10)
                for i in range(12)
            ]
            audit = router.audit_applied()
        assert all(audit[r.seq] == 1 for r in results)


class _ResolvesBeforeAdmitReturns(ClusterShard):
    """A shard whose ``admit`` returns only once its service has resolved
    the request — as a remote shard's result push may beat its reply."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.resolved = threading.Event()
        end = self.service._end

        def ended(*args, **kwargs):
            end(*args, **kwargs)
            self.resolved.set()

        self.service._end = ended

    def admit(self, request):
        ticket = super().admit(request)
        assert self.resolved.wait(10)
        return ticket


def test_a_request_resolved_before_admit_returns_settles_on_its_shard():
    """The router records where a request rests before it listens for
    the result, so an early resolution still names the shard (it read
    -1 when the shard's resolve hook could run first)."""
    shard = _ResolvesBeforeAdmitReturns(0, slots=1, workers=1)
    with ClusterRouter([shard]).start(detect=False) as router:
        result = router.submit("t", value_alts(5)).result(timeout=10)
    assert result.committed and result.value == 5
    assert result.shard_id == 0


class TestSpillAndSteal:
    def test_saturated_home_spills_to_idle_shard(self):
        shards = [ClusterShard(i, slots=1, workers=1) for i in range(2)]
        router = ClusterRouter(shards, steal=False).start(detect=False)
        try:
            tenant = "sp"
            home = router.ring.route(tenant)
            blockers = [router.submit(tenant, slow_alt()) for _ in range(3)]
            time.sleep(0.05)  # let the blocker occupy home's only slot
            spilled = router.submit(tenant, value_alts(42)).result(timeout=10)
            assert spilled.committed
            assert spilled.shard_id != home
            for b in blockers:
                assert b.result(timeout=10).committed
        finally:
            router.stop()

    def test_steal_round_moves_backlog_to_idle_shard(self):
        shards = [ClusterShard(i, slots=1, workers=1) for i in range(2)]
        router = ClusterRouter(
            shards, steal=False, spill=False
        ).start(detect=False)
        try:
            tenant = "sp"
            home = router.ring.route(tenant)
            blockers = [router.submit(tenant, slow_alt()) for _ in range(2)]
            queued = [router.submit(tenant, value_alts(i)) for i in range(4)]
            time.sleep(0.05)
            moved = router.steal_round()
            assert moved > 0
            results = [q.result(timeout=10) for q in queued]
            assert all(r.committed for r in results)
            assert any(r.shard_id != home for r in results)
            for b in blockers:
                b.result(timeout=10)
        finally:
            router.stop()


class TestDecommission:
    def test_decommission_reroutes_backlog(self):
        shards = [ClusterShard(i, slots=1, workers=1) for i in range(2)]
        router = ClusterRouter(
            shards, steal=False, spill=False
        ).start(detect=False)
        try:
            tenant = "sp"
            home = router.ring.route(tenant)
            blockers = [router.submit(tenant, slow_alt()) for _ in range(2)]
            queued = [router.submit(tenant, value_alts(i)) for i in range(3)]
            time.sleep(0.03)
            router.decommission(home)
            results = [q.result(timeout=10) for q in queued]
            # the backlog re-routed to the survivor instead of failing
            assert all(r.committed for r in results)
            assert all(r.failover == "rerouted" for r in results)
            assert all(r.shard_id != home for r in results)
            for b in blockers:
                assert b.result(timeout=10).committed
        finally:
            router.stop()


class TestCrashTakeover:
    def test_kill_and_takeover_settles_every_request(self):
        with make_router(3).start(detect=False) as router:
            tickets = [router.submit(f"t{i}", value_alts(i)) for i in range(9)]
            victim = router.ring.route("t0")
            router.kill_shard(victim)
            report = router.takeover(victim)
            assert not report["stale"]
            results = [t.result(timeout=10) for t in tickets]
            assert all(r.committed for r in results)
            # failover work is marked
            moved = [r for r in results if r.failover]
            assert all(r.failover in ("replayed", "relanded") for r in moved)
            audit = router.audit_applied()
        assert all(audit.get(r.seq, 0) == 1 for r in results)

    def test_replayed_results_carry_the_journal_value(self):
        with make_router(2).start(detect=False) as router:
            tickets = [router.submit(f"t{i}", value_alts(i)) for i in range(6)]
            # wait for all to finish serving, so every commit is journaled
            results = [t.result(timeout=10) for t in tickets]
            assert all(r.committed for r in results)

            # now a fresh burst, killed immediately: whatever committed
            # before the crash must replay with its original value
            tickets = [router.submit(f"t{i}", value_alts(i + 100)) for i in range(6)]
            victim = router.ring.route("t0")
            router.kill_shard(victim)
            router.takeover(victim)
            for i, t in enumerate(tickets):
                r = t.result(timeout=10)
                assert r.committed
                assert r.value == i + 100
                if r.failover == "replayed":
                    assert r.result.replayed

    def test_takeover_is_idempotent(self):
        with make_router(2).start(detect=False) as router:
            router.kill_shard(0)
            first = router.takeover(0)
            second = router.takeover(0)
        assert not first["stale"]
        assert second["stale"]
        assert second["replayed"] == second["relanded"] == 0

    def test_takeover_retires_the_shard(self):
        with make_router(2).start(detect=False) as router:
            victim = router.shard(0)
            router.kill_shard(0)
            router.takeover(0)
            snap = router.snapshot()
            assert victim.state is ShardState.DEAD
            assert 0 not in {s["shard"] for s in snap["members"]}
            assert snap["retired"] == [0]


class TestReplayIsOnePolicy:
    """A journalled win settles a request the same way on every path."""

    SEQ, TENANT, VALUE = 910_001, "t0", "the durable value"

    def _journal_with_win(self, sealed_admit=False):
        journal = CommitJournal()
        if sealed_admit:
            journal.seal(journal.begin(
                "admit", request=self.SEQ, tenant=self.TENANT, priority=0,
                cost=1.0, timeout=None, spec={"n": 1}, request_class="",
            ))
        record_block_win(
            journal, self.SEQ, 0,
            AlternativeResult(index=0, name="alt", value=self.VALUE, succeeded=True),
        )
        return journal

    def _via_takeover(self):
        # the shard dies with the request admitted and its win applied
        shard = ClusterShard(0, slots=1, workers=1)
        with ClusterRouter([shard]).start(detect=False) as router:
            started = threading.Event()

            def alt(ws):
                started.set()
                time.sleep(0.05)
                return self.VALUE

            ticket = router.submit(self.TENANT, [alt], seq=self.SEQ)
            assert started.wait(10)
            router.kill_shard(0)
            assert router.takeover(0)["replayed"] == 1
            return ticket.result(timeout=10)

    def _via_place_journal_crash(self):
        # the admit write kills the shard's journal; the win is already there
        shard = ClusterShard(0, slots=1, workers=1, journal=self._journal_with_win())

        def torn_admit(*args, **kwargs):
            raise JournalCrash("injected torn admit")

        with ClusterRouter([shard]).start(detect=False) as router:
            shard.service.admit = torn_admit
            ticket = router.submit(self.TENANT, value_alts("re-run"), seq=self.SEQ)
            return ticket.result(timeout=10)

    def _via_restore(self):
        # the whole cluster died with the admit sealed and the win applied
        router, report = ClusterRouter.restore(
            {0: self._journal_with_win(sealed_admit=True)},
            shard_kwargs=dict(slots=1, workers=1), detect=False,
        )
        router.stop()
        assert report.replayed == [self.SEQ]
        return report.results[self.SEQ]

    def test_takeover_place_crash_and_restore_agree(self):
        results = [
            self._via_takeover(), self._via_place_journal_crash(), self._via_restore(),
        ]
        for result in results:
            assert result.committed and result.replayed and result.shard_id == 0
            assert result.failover == "replayed" and result.value == self.VALUE
            assert result.result.outcome.extras == {"journal_recovered": True}
            assert result.result.outcome.elapsed_s == 0.0
        first, *rest = [dataclasses.replace(r, attempts=0) for r in results]
        assert all(other == first for other in rest)


class _FirstTarget:
    """Makes the first shard a watched landing tries (or, with
    ``everyone``, every member it tries) do what the matrix column says."""

    def __init__(self, seq, value, raises, win, everyone):
        self.seq, self.value = seq, value
        self.raises, self.win, self.everyone = raises, win, everyone
        self.armed = False
        self.first = None

    def install(self, shard):
        admit = shard.service.admit

        def probed(request):
            if (
                self.armed and request.seq == self.seq
                and shard.shard_id != TestLandingMatrix.SPARE
                and (self.first is None or self.everyone)
            ):
                self.first = self.first or shard
                if self.win:  # it raced through a worker before the fault
                    record_block_win(shard.journal, request.seq, 0, AlternativeResult(
                        index=0, name="alt", value=self.value, succeeded=True,
                    ))
                if self.raises is not None:
                    raise self.raises()
            return admit(request)

        shard.service.admit = probed


class TestLandingMatrix:
    """Every way a request comes to rest x everything its first target
    can do with the admit: one landing path, one verdict vocabulary."""

    SEQ, TENANT, VALUE, SPARE = 930_001, "t0", "the watched value", 100

    #: (id, what the admit raises, a durable win first?, every member?, verdict)
    COLUMNS = [
        ("accepts", None, False, False, "landed"),
        ("answers-no", lambda: ServiceStopped("stopping"), False, False, "landed"),
        ("never-reached", lambda: ShardUnreachable("connect refused"), False, False,
         "landed"),
        ("journal-crash", lambda: JournalCrash("torn admit"), False, False, "landed"),
        ("journal-crash-after-win", lambda: JournalCrash("torn admit"), True, False,
         "replayed"),
        ("unknown", lambda: ShardUnreachable("no answer", sent=True), False, False,
         "landed"),
        ("unknown-after-win", lambda: ShardUnreachable("no answer", sent=True), True,
         False, "replayed"),
        ("nobody-left-spare", lambda: AdmissionRejected("full", tenant="t0"), False,
         True, "landed"),
        ("nobody-left", lambda: AdmissionRejected("full", tenant="t0"), False, True,
         "failed"),
    ]

    def _enter(self, entry, Router, probe, **kw):
        """Set ``entry`` up; returns ``(router, drive, other tickets)`` —
        ``drive()`` runs the watched landing and returns the watched
        request's ticket (None when restore left it sealed)."""
        watched = value_alts(self.VALUE)
        if entry == "restore":
            journals = {i: CommitJournal() for i in range(3)}
            journals[0].seal(journals[0].begin(
                "admit", request=self.SEQ, tenant=self.TENANT, priority=0,
                cost=1.0, timeout=None, spec={"n": 1}, request_class="",
            ))
            probe.armed = True
            router, report = Router.restore(
                journals, build_alternatives=lambda spec: watched,
                shard_kwargs=dict(slots=1, workers=1), detect=False, steal=False,
                **kw,
            )
            return router, lambda: report.tickets.get(self.SEQ), []
        shards = [ClusterShard(i, slots=1, workers=1) for i in range(3)]
        router = Router(shards, spill=entry == "spill", steal=False, **kw)
        router.start(detect=False)
        home = router.ring.route(self.TENANT)

        def submit_watched():
            return router.submit(self.TENANT, watched, seq=self.SEQ)

        if entry == "fresh":
            probe.armed = True
            return router, submit_watched, []
        # the home shard's one slot is held, and something waits behind it
        others = [router.submit(self.TENANT, slow_alt(0.05))]
        deadline = time.monotonic() + 5
        while router.shard(home).idle_slots() and time.monotonic() < deadline:
            time.sleep(0.001)
        others.append(router.submit(self.TENANT, value_alts("bystander")))
        if entry == "spill":
            probe.armed = True
            return router, submit_watched, others
        ticket = submit_watched()  # queued on the home shard, unwatched
        probe.armed = True

        def drive():
            if entry == "steal":
                router.steal_round()
            elif entry == "shed":
                router.decommission(home)
            else:
                router.kill_shard(home)
                router.takeover(home)
            return ticket

        return router, drive, others

    @pytest.mark.parametrize("column", COLUMNS, ids=lambda c: c[0])
    @pytest.mark.parametrize(
        "entry", ["fresh", "spill", "steal", "shed", "takeover", "restore"]
    )
    def test_every_entry_comes_to_rest_through_the_one_path(self, entry, column):
        name, raises, win, everyone, expected = column
        probe = _FirstTarget(self.SEQ, self.VALUE, raises, win, everyone)

        class Probed(ClusterRouter):
            def _adopt(self, shard):
                probe.install(shard)
                super()._adopt(shard)

        kw = {}
        if name == "nobody-left-spare":
            kw["spare_factory"] = lambda: ClusterShard(self.SPARE, slots=1, workers=1)
        router, drive, others = self._enter(entry, Probed, probe, **kw)
        try:
            result = None
            try:
                ticket = drive()
                result = None if ticket is None else ticket.result(timeout=10)
            except (AdmissionRejected, NoSurvivingShard):
                assert entry in ("fresh", "spill")  # the caller is told at once
            committed = result is not None and result.committed
            verdict = (
                "failed" if not committed
                else "replayed" if result.failover == "replayed" else "landed"
            )
            assert verdict == expected, (result, probe.first)
            for other in others:
                other.result(timeout=10)
            audit = router.audit_applied()
            assert audit.get(self.SEQ, 0) == (1 if committed else 0)
            snap = router.snapshot()
            assert snap["inflight"] == 0
            first = probe.first.shard_id
            home = router.ring.route(self.TENANT) if entry == "spill" else None
            assert first != home, "the spill target is tried first"
            fenced = raises is not None and (
                isinstance(raises(), JournalCrash) or getattr(raises(), "sent", False)
            )
            assert (first in snap["retired"]) == fenced
            if committed:
                assert result.value == self.VALUE
                assert (result.shard_id == first) == (
                    name in ("accepts", "journal-crash-after-win", "unknown-after-win")
                )
            if name == "nobody-left-spare":
                assert result.shard_id == self.SPARE
        finally:
            router.stop()


class TestRefusedSubmitLeavesNothingBehind:
    @pytest.mark.parametrize("bad", [[42], []])
    def test_invalid_alternatives_register_nothing(self, bad):
        with make_router(2).start(detect=False) as router:
            with pytest.raises(WorldsError):
                router.submit("t", bad)
            assert router.snapshot()["inflight"] == 0
            assert router._inflight == {}

    def test_any_error_out_of_placement_unregisters(self):
        # e.g. a ClusterError rebuilt from a host-side failure
        def broken_admit(request):
            raise ClusterError("RuntimeError: host-side failure")

        with make_router(1).start(detect=False) as router:
            router.shard(0).service.admit = broken_admit
            with pytest.raises(ClusterError, match="host-side"):
                router.submit("t", value_alts(1))
            assert router.snapshot()["inflight"] == 0


def classed_alternatives(spec):
    def alt(ws):
        return spec["n"]

    return [
        dataclasses.replace(a, name=f"n{spec['n']}.{i}")
        for i, a in enumerate(normalize_alternatives([alt, alt, alt]))
    ]


def test_request_class_survives_admit_crash_and_restore_on_local_shards():
    """``request_class`` rides router -> shard -> sealed admit -> restore ->
    ``policy.decide``: a ``class_max_k`` cap of 1 is the observer."""
    def policy():
        return AdaptiveSpeculationPolicy(class_max_k={"io": 1})

    storage = MemoryJournalStorage()
    journal = CommitJournal(storage=storage)
    shard = ClusterShard(
        0, slots=3, workers=1, policy=policy(), journal=journal,
        journal_admission=True,
    )
    router = ClusterRouter([shard]).start(detect=False)
    try:
        # the one worker parks on the first; the second waits in the queue
        # (a jam world fails once its host has crashed: nothing applies)
        jam = CrashJam([shard.service])
        classed = jam.submit(
            router.submit, "t", worlds=3, spec={"n": 2}, request_class="io"
        )
        plain = jam.submit(router.submit, "t", worlds=3, spec={"n": 3})
        sealed = {
            i["data"]["request"]: i["data"]["request_class"]
            for i in journal.sealed_unapplied_intents("admit")
        }
        assert sealed[classed.seq] == "io" and sealed[plain.seq] == ""
    finally:
        router.crash()
    restored, report = ClusterRouter.restore(
        {0: CommitJournal(storage=storage)}, build_alternatives=classed_alternatives,
        shard_kwargs=dict(slots=3, workers=1, policy=policy()), detect=False,
    )
    try:
        io = report.tickets[classed.seq].result(timeout=10)
        other = report.tickets[plain.seq].result(timeout=10)
    finally:
        restored.stop()
    assert io.committed and io.value == 2 and io.result.k == 1
    assert other.committed and other.value == 3 and other.result.k == 3


def heartbeat_misses(obs, shard_id):
    return obs.registry.get("mw_cluster_heartbeat_misses_total").value(shard=shard_id)


class TestHeartbeatDetection:
    def test_silent_crash_is_detected_and_taken_over(self):
        obs = Observability()
        with make_router(2, obs=obs).start(detect=False) as router:
            victim = router.shard(router.ring.route("tX"))
            victim.crash()  # dies without telling the router
            for beat in range(1, 4):
                members = {s["shard"] for s in router.snapshot()["members"]}
                assert victim.shard_id in members, f"declared at beat {beat - 1}"
                router.heartbeat_round()
            members = {s["shard"] for s in router.snapshot()["members"]}
            assert victim.shard_id not in members
            assert victim.state is ShardState.DEAD
            assert heartbeat_misses(obs, victim.shard_id) == 3
            (takeover,) = [
                s for s in obs.tracer.spans if s.name.startswith("takeover:")
            ]
            assert takeover.attrs["kind"] == "crash"
            assert takeover.attrs["beat"] == 3
            assert takeover.attrs["reason"] == "3 consecutive misses (shard dead)"

    def test_healthy_shards_keep_renewing(self):
        obs = Observability()
        with make_router(2, obs=obs).start(detect=False) as router:
            for _ in range(10):
                router.heartbeat_round()
            assert router.shards_up == 2
            for shard in (router.shard(0), router.shard(1)):
                assert shard.state is ShardState.UP
                assert heartbeat_misses(obs, shard.shard_id) == 0

    def test_background_detector_catches_a_kill(self):
        router = make_router(3).start()
        try:
            tickets = [router.submit(f"t{i}", value_alts(i)) for i in range(9)]
            victim = router.ring.route("t0")
            router.shard(victim).crash()
            deadline = time.time() + 5
            while router.shards_up > 2 and time.time() < deadline:
                time.sleep(0.01)
            assert router.shards_up == 2
            results = [t.result(timeout=10) for t in tickets]
            assert all(r.committed for r in results)
            audit = router.audit_applied()
            assert all(audit.get(r.seq, 0) == 1 for r in results)
        finally:
            router.stop()


class TestInjectedClusterFaults:
    def test_stale_takeover_never_double_commits(self):
        plan = FaultPlan(seed=7, rates={FaultKind.STALE_TAKEOVER: 0.2})
        obs = Observability()
        shards = [
            ClusterShard(i, slots=2, workers=2, fault_plan=plan, obs=obs)
            for i in range(3)
        ]
        router = ClusterRouter(shards, fault_plan=plan, obs=obs).start(detect=False)
        try:
            tickets = [router.submit(f"t{i}", value_alts(i)) for i in range(9)]
            takeovers = 0
            for _ in range(12):
                if router.shards_up == 1:
                    break  # a fenced shard runs none of its backlog on the
                    # way down, so "all commit" needs somebody left to run it
                before = router.shards_up
                router.heartbeat_round()
                takeovers += before - router.shards_up
            assert takeovers > 0, "seed 7 should fire at least one stale takeover"
            results = [t.result(timeout=10) for t in tickets]
            assert all(r.committed for r in results)
            audit = router.audit_applied()
            assert all(audit.get(r.seq, 0) == 1 for r in results)
        finally:
            router.stop()

    def test_router_partition_suspects_then_recovers(self, monkeypatch):
        # find a seed+shard where a partition window fires
        plan = FaultPlan(seed=11, rates={FaultKind.ROUTER_PARTITION: 0.5})
        shards = [ClusterShard(i, slots=1, workers=1, fault_plan=plan) for i in range(2)]
        # long miss threshold: the partition (4 beats) ends before
        # declaration (6 misses), so the shard must recover, not die
        monkeypatch.setattr(router_module, "MISS_THRESHOLD", 6)
        router = ClusterRouter(shards, fault_plan=plan).start(detect=False)
        try:
            suspected = False
            for _ in range(24):
                router.heartbeat_round()
                if any(
                    s["state"] == "suspect"
                    for s in router.snapshot()["members"]
                ):
                    suspected = True
            assert suspected, "seed 11 should partition the router at least once"
            assert router.shards_up == 2  # everyone recovered
            for i in range(2):
                assert router.shard(i).up  # not declared: suspect at most
        finally:
            router.stop()

    def test_detector_log_of_a_seeded_run_is_pinned(self):
        # the transitions the per-shard lease this detector replaced logged
        # for this seed, by beat: a partition window declares shard 1 and
        # later shard 0 (live: stale), two lost beats are rescued on shard
        # 2, then it dies silently (before beat 11) and is taken over
        plan = FaultPlan(seed=8, rates={
            FaultKind.ROUTER_PARTITION: 0.4, FaultKind.HEARTBEAT_MISS: 0.3,
        })
        obs = Observability()
        shards = [
            ClusterShard(i, slots=1, workers=1, fault_plan=plan, obs=obs)
            for i in range(3)
        ]
        router = ClusterRouter(shards, fault_plan=plan, obs=obs).start(detect=False)
        try:
            for beat in range(24):
                if beat == 10:
                    shards[2].crash()
                router.heartbeat_round()
        finally:
            router.stop()
        log = {i: [] for i in range(3)}
        for s in obs.tracer.spans:
            if s.name == "fault:heartbeat-miss":
                log[s.attrs["shard"]].append((s.attrs["beat"], "lost"))
            elif s.name == "shard:suspect":
                log[s.attrs["shard"]].append((s.attrs["beat"], "suspect"))
            elif s.name.startswith("takeover:"):
                log[s.attrs["shard"]].append((s.attrs["beat"], s.attrs["kind"]))
        assert log == {
            1: [(1, "suspect"), (3, "stale")],
            0: [(8, "suspect"), (10, "stale")],
            2: [(3, "lost"), (8, "lost"), (11, "suspect"), (13, "crash")],
        }
        assert [heartbeat_misses(obs, i) for i in range(3)] == [3, 3, 5]
        assert shards[2].state is ShardState.DEAD

    def test_crash_decision_is_deterministic(self):
        plan = FaultPlan(seed=4, rates={FaultKind.SHARD_CRASH: 0.5})
        shards = [ClusterShard(i, fault_plan=plan) for i in range(4)]
        router = ClusterRouter(shards, fault_plan=plan)
        decisions = [router.crash_decision(i, epoch=0) for i in range(4)]
        again = [router.crash_decision(i, epoch=0) for i in range(4)]
        assert decisions == again
        assert any(d is not None for d in decisions)
        for d in decisions:
            if d is not None:
                assert 0.0 <= d <= 1.0


class _Snapshot:
    def __init__(self, owner):
        self.owner = owner


class _LiveRemote(ClusterShard):
    """``journal`` as a live remote shard serves it: a fresh snapshot
    object per read (the previous one lingers until the next read)."""

    _last = None

    @property
    def journal(self):
        self._last = snapshot = _Snapshot(self.shard_id)
        return snapshot

    @journal.setter
    def journal(self, value):
        pass


class _DeadRemote(ClusterShard):
    """``journal`` as a dead remote shard serves it: opened on the first
    read, cached from then on."""

    _opened = None

    @property
    def journal(self):
        if self._opened is None:
            self._opened = _Snapshot(self.shard_id)
        return self._opened

    @journal.setter
    def journal(self, value):
        pass


class TestAuditSeesEveryJournal:
    def test_a_journal_opened_during_the_audit_is_not_mistaken_for_a_snapshot(self):
        """``journals()`` used to dedupe by ``id()`` of objects it had
        already let go of: a dead shard's journal, first opened right
        there, can be allocated at a freed snapshot's address and was
        then skipped — a committed request "applied 0 times"."""
        dead = _DeadRemote(1)
        router = ClusterRouter([_LiveRemote(0), dead])
        dead._opened = None  # nobody has read it yet: no orphans at takeover
        assert sorted(j.owner for j in router.journals()) == [0, 1]

    def test_shards_sharing_one_journal_count_once(self):
        journal = CommitJournal()
        router = ClusterRouter(
            [ClusterShard(0, journal=journal), ClusterShard(1, journal=journal)]
        )
        assert router.journals() == [journal]


class TestScaleOut:
    def test_add_shard_joins_ring_and_serves(self):
        with make_router(2).start(detect=False) as router:
            router.add_shard(ClusterShard(2))
            assert router.shards_up == 3
            results = [
                router.submit(f"t{i}", value_alts(i)).result(timeout=10)
                for i in range(12)
            ]
            assert all(r.committed for r in results)
            assert {r.shard_id for r in results} == {0, 1, 2}

    def test_cluster_metrics_are_exported(self):
        obs = Observability()
        shards = [ClusterShard(i, slots=1, workers=1, obs=obs) for i in range(2)]
        router = ClusterRouter(shards, obs=obs).start(detect=False)
        try:
            for i in range(6):
                router.submit(f"t{i}", value_alts(i)).result(timeout=10)
            router.kill_shard(0)
            router.takeover(0)
        finally:
            router.stop()
        reg = obs.registry
        assert "mw_cluster_requests_total" in reg
        assert "mw_cluster_takeovers_total" in reg
        assert "mw_cluster_shards_up" in reg
        assert reg.get("mw_cluster_requests_total").total() >= 6
        assert reg.get("mw_cluster_takeovers_total").total() == 1
