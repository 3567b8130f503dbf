"""The cluster router: placement, spill, decommission, failover."""

import dataclasses
import functools
import sys
import threading
import time
from collections import Counter

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
from repro.journal import (
    CommitJournal,
    MemoryJournalStorage,
    record_block_win,
    request_fate,
)
from repro.obs import Observability
from repro.serve.service import ServeResult

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


def gated_alt(gate, started=None):
    """An alternative that holds its world slot until ``gate`` is set
    (and sets ``started``, if given, once it holds it)."""
    def gated(ws):
        if started is not None:
            started.set()
        gate.wait(10)
        return "gated"

    return [gated]


def wait_until_draining(shard, timeout=5.0):
    deadline = time.monotonic() + timeout
    while shard.state is not ShardState.DRAINING and time.monotonic() < deadline:
        time.sleep(0.001)


def release_once_crashed(shard, gate):
    """Set ``gate`` from a helper thread once ``shard``'s service has
    crashed: crash() joins the workers, so a gated one must finish, and
    only after the crash flag, so nothing it ends is reported."""
    def release():
        deadline = time.monotonic() + 5
        while not shard.service._crashed and time.monotonic() < deadline:
            time.sleep(0.001)
        gate.set()

    threading.Thread(target=release, daemon=True).start()


def make_router(n=3, slots=2, workers=2, **kw):
    shards = [ClusterShard(i, slots=slots, workers=workers) for i in range(n)]
    return ClusterRouter(shards, **kw)


def assert_counts_match_the_table(router):
    """The router's per-shard outstanding counts are a recount of its
    request table (-1: in transit), with no negative or stale entry."""
    with router._lock:
        counts = {sid: n for sid, n in router._outstanding.items() if n}
        table = Counter(rec.shard_id for rec in router._inflight.values())
    assert counts == dict(table)


class TestPlacement:
    def test_requests_route_by_ring_and_commit(self):
        # spill off: a home holding more outstanding requests is passed by
        with make_router(3, spill=False).start(detect=False) as router:
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


class _TakenOverAfterAdmit(ClusterShard):
    """A shard whose ``admit`` succeeds and then, before it returns, is
    taken over from another thread: the takeover claims its orphans
    while the landing request is still in transit."""

    router = None

    def admit(self, request):
        ticket = super().admit(request)
        taker = threading.Thread(target=self.router.takeover, args=(self.shard_id,))
        taker.start()
        taker.join(10)
        return ticket


def test_a_takeover_between_admit_and_landing_strands_nothing():
    """The landing stands a request only on a shard still in the
    membership; one taken over under it is outcome unknown, so the
    request is replayed from its journal or moves on (it stood on the
    retired shard, its ticket never resolving)."""
    shards = [_TakenOverAfterAdmit(0, slots=1, workers=1), ClusterShard(1)]
    router = ClusterRouter(shards, spill=False).start(detect=False)
    shards[0].router = router
    try:
        tenant = next(f"t{i}" for i in range(100) if router.ring.route(f"t{i}") == 0)
        result = router.submit(tenant, value_alts(7)).result(timeout=3)
        assert result.committed and result.value == 7
        assert result.failover in ("relanded", "replayed")
        assert router.snapshot()["inflight"] == 0
        assert_counts_match_the_table(router)
        assert router.audit_applied()[result.seq] == 1
    finally:
        router.stop()


class TestSpill:
    """A request lands on the member with the fewest of this router's
    requests outstanding; ties keep the tenant's ring order."""

    def test_saturated_home_spills_to_idle_shard(self):
        # the count is the router's own: no wait for the home to report
        # its slot taken, and a landing off the home is counted
        shards = [ClusterShard(i, slots=1, workers=1) for i in range(2)]
        obs = Observability()
        router = ClusterRouter(shards, obs=obs).start(detect=False)
        gate = threading.Event()
        try:
            tenant = "sp"
            home = router.ring.route(tenant)
            held = router.submit(tenant, gated_alt(gate))
            spilled = router.submit(tenant, value_alts(42)).result(timeout=10)
            assert spilled.committed
            assert spilled.shard_id != home
            spills = obs.registry.get("mw_cluster_spills_total")
            assert spills.value(src=home, dst=spilled.shard_id) == 1
            gate.set()
            assert held.result(timeout=10).shard_id == home
        finally:
            gate.set()
            router.stop()

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_held_requests_of_one_tenant_spread_within_one(self, n_shards):
        shards = [ClusterShard(i, slots=1, workers=1) for i in range(n_shards)]
        router = ClusterRouter(shards).start(detect=False)
        gate = threading.Event()
        try:
            tickets = [router.submit("one", gated_alt(gate)) for _ in range(7)]
            with router._lock:
                standing = Counter(rec.shard_id for rec in router._inflight.values())
            outstanding = [standing[sid] for sid in range(n_shards)]
            assert sum(outstanding) == 7
            assert max(outstanding) - min(outstanding) <= 1, outstanding
            members = router.snapshot()["members"]
            assert [m["outstanding"] for m in members] == outstanding
            assert_counts_match_the_table(router)
            gate.set()
            assert all(t.result(timeout=10).committed for t in tickets)
            assert_counts_match_the_table(router)
        finally:
            gate.set()
            router.stop()

    def test_concurrent_landings_and_resolves_keep_the_counts_exact(self):
        """More submitting threads than cores on a short switch interval,
        then a takeover whose re-landings race the survivors' resolves:
        the counts stay a recount of the table throughout."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        shards = [ClusterShard(i, slots=2, workers=2) for i in range(3)]
        router = ClusterRouter(shards).start(detect=False)
        gate = threading.Event()
        tickets, appended = [], threading.Lock()

        def submitter(n):  # 48 requests: a survivor's 32-deep queue takes its re-lands
            for i in range(8):
                ticket = router.submit(f"t{n}-{i % 3}", gated_alt(gate))
                with appended:
                    tickets.append(ticket)

        try:
            threads = [threading.Thread(target=submitter, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
            assert_counts_match_the_table(router)
            release_once_crashed(shards[0], gate)
            router.kill_shard(0)
            router.takeover(0)
            assert_counts_match_the_table(router)
            results = [t.result(timeout=30) for t in tickets]
            assert all(r.committed for r in results), [
                (r.seq, r.status, r.reason) for r in results if not r.committed
            ]
            assert_counts_match_the_table(router)
            assert router.snapshot()["inflight"] == 0
        finally:
            sys.setswitchinterval(interval)
            gate.set()
            router.stop()

    def test_an_idle_cluster_lands_each_tenant_on_its_ring_home(self):
        with make_router(3).start(detect=False) as router:
            for i in range(12):
                tenant = f"tenant-{i}"
                result = router.submit(tenant, value_alts(i)).result(timeout=10)
                assert result.committed
                assert result.shard_id == router.ring.route(tenant)
            assert all(m["outstanding"] == 0 for m in router.snapshot()["members"])


class TestDecommission:
    def test_decommission_serves_backlog_in_place_then_retires(self):
        shards = [ClusterShard(i, slots=1, workers=1) for i in range(2)]
        obs = Observability()
        router = ClusterRouter(
            shards, spill=False, obs=obs
        ).start(detect=False)
        try:
            tenant = "sp"
            home = router.ring.route(tenant)
            blockers = [router.submit(tenant, slow_alt()) for _ in range(2)]
            queued = [router.submit(tenant, value_alts(i)) for i in range(3)]
            time.sleep(0.03)
            router.decommission(home)
            # the drain served everything the shard accepted, in place,
            # before it left the membership
            assert all(t.done for t in blockers + queued)
            results = [q.result(timeout=0) for q in queued]
            assert [r.value for r in results] == [0, 1, 2]
            assert all(r.committed and r.failover == "" for r in results)
            assert all(r.shard_id == home for r in results)
            assert all(b.result(timeout=0).committed for b in blockers)
            snap = router.snapshot()
            assert snap["retired"] == [home] and snap["inflight"] == 0
            assert home not in {s["shard"] for s in snap["members"]}
            takeovers = obs.registry.get("mw_cluster_takeovers_total")
            assert takeovers.value(kind="decommission") == 1
            after = router.submit(tenant, value_alts(9)).result(timeout=10)
            assert after.committed and after.shard_id != home
        finally:
            router.stop()

    def test_a_shard_that_dies_mid_drain_is_settled_by_its_takeover(self):
        shards = [ClusterShard(i, slots=1, workers=1) for i in range(2)]
        router = ClusterRouter(
            shards, spill=False
        ).start(detect=False)
        gate = threading.Event()
        try:
            tenant = "sp"
            home = router.ring.route(tenant)
            tickets = [router.submit(tenant, gated_alt(gate))]
            tickets += [router.submit(tenant, value_alts(i)) for i in range(3)]
            leaving = threading.Thread(target=router.decommission, args=(home,))
            leaving.start()
            wait_until_draining(shards[home])
            release_once_crashed(shards[home], gate)
            router.kill_shard(home)  # the shard dies mid-drain
            leaving.join(10)
            assert not leaving.is_alive()
            results = [t.result(timeout=10) for t in tickets]
            # a dead shard reports nothing: every answer came from the
            # takeover, out of the journal or off a survivor
            assert all(r.committed for r in results)
            assert all(r.failover in ("replayed", "relanded") for r in results)
            assert [r.value for r in results] == ["gated", 0, 1, 2]
            audit = router.audit_applied()
            assert all(audit.get(r.seq) == 1 for r in results)
            assert router.snapshot()["retired"] == [home]
        finally:
            gate.set()
            router.stop()

    def test_a_drain_that_outlasts_its_join_ends_in_a_crash_the_takeover_settles(
        self, monkeypatch
    ):
        # the running request outlasts the (shortened) worker join: the
        # shard crashes itself, which joins that worker, so its one win is
        # in the journal before the takeover reads it; the backlog it
        # never reached stays acked and commits on the survivor
        shards = [ClusterShard(i, slots=1, workers=1) for i in range(2)]
        router = ClusterRouter(
            shards, spill=False
        ).start(detect=False)
        gate = threading.Event()
        try:
            tenant = "sp"
            home = router.ring.route(tenant)
            service = shards[home].service
            monkeypatch.setattr(
                service, "drain", functools.partial(service.drain, timeout=0.05)
            )
            blocker = router.submit(tenant, gated_alt(gate))
            queued = [router.submit(tenant, value_alts(i)) for i in range(3)]
            release_once_crashed(shards[home], gate)
            router.decommission(home)
            assert shards[home].state is ShardState.DEAD
            first = blocker.result(timeout=10)
            assert first.committed and first.failover == "replayed"
            results = [q.result(timeout=10) for q in queued]
            assert [r.value for r in results] == [0, 1, 2]
            assert all(r.committed and r.failover == "relanded" for r in results)
            assert all(r.shard_id != home for r in results)
            audit = router.audit_applied()
            assert all(audit.get(r.seq) == 1 for r in [first, *results])
            assert router.snapshot()["retired"] == [home]
        finally:
            gate.set()
            router.stop()

    def test_a_crash_at_any_append_of_a_decommission_loses_no_acked_request(self):
        """Every journal's bytes after each append a decommission makes
        are one whole-cluster crash: each acked request is then re-admitted,
        replayed or already applied."""
        tape, recording = [], threading.Lock()
        storages = {}

        class Recording(MemoryJournalStorage):
            armed = False

            def append(self, blob):
                with recording:
                    super().append(blob)
                    if Recording.armed:
                        tape.append({
                            sid: storage.load() for sid, storage in storages.items()
                        })

        storages.update({i: Recording() for i in range(2)})
        shards = [
            ClusterShard(
                i, slots=1, workers=1, journal_admission=True,
                journal=CommitJournal(storage=storages[i]),
            )
            for i in range(2)
        ]
        router = ClusterRouter(shards, spill=False).start(detect=False)
        gate, started = threading.Event(), threading.Event()

        def blocker(ws):
            started.set()
            gate.wait(10)
            return "blocker"

        try:
            tenant = "t0"
            home = router.ring.route(tenant)
            acked = [router.submit(tenant, [blocker], spec={"v": "blocker"}).seq]
            assert started.wait(10)
            acked += [
                router.submit(tenant, value_alts(i), spec={"v": i}).seq
                for i in range(3)
            ]
            Recording.armed = True
            leaving = threading.Thread(target=router.decommission, args=(home,))
            leaving.start()
            wait_until_draining(shards[home])
            time.sleep(0.05)  # whatever the drain does before the blocker ends
            gate.set()
            leaving.join(10)
            assert not leaving.is_alive()
        finally:
            gate.set()
            router.stop()
        Recording.armed = False
        assert tape, "the decommission made no journal append"

        lost = []
        for point, images in enumerate(tape):
            journals = {
                sid: CommitJournal(storage=MemoryJournalStorage(blob))
                for sid, blob in images.items()
            }
            restored, report = ClusterRouter.restore(
                journals, build_alternatives=lambda spec: value_alts(spec["v"]),
                shard_kwargs=dict(slots=1, workers=1), detect=False,
            )
            restored.stop()
            for seq in acked:
                found = (
                    seq in report.re_admitted or seq in report.replayed
                    or request_fate(journals, seq).won is not None
                )
                if not found:
                    lost.append((point, seq))
        assert lost == [], f"acked requests lost at crash points: {lost}"


class TestCrashTakeover:
    def test_kill_and_takeover_settles_every_request(self):
        with make_router(3).start(detect=False) as router:
            tickets = [router.submit(f"t{i}", value_alts(i)) for i in range(9)]
            victim = router.ring.route("t0")
            router.kill_shard(victim)
            report = router.takeover(victim)
            assert not report["stale"]
            assert_counts_match_the_table(router)
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
                "admit", request=self.SEQ, tenant=self.TENANT, timeout=None,
                spec={"n": 1},
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

    SEQ, TENANT, VALUE = 930_001, "t0", "the watched value"

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
        ("nobody-left", lambda: AdmissionRejected("full", tenant="t0"), False, True,
         "failed"),
    ]

    def _enter(self, entry, Router, probe, gate):
        """Set ``entry`` up; returns ``(router, drive, other tickets)`` —
        ``drive()`` runs the watched landing and returns the watched
        request's ticket (None when restore left it sealed). The home
        shard's slot, when held, is held until ``gate`` is set."""
        watched = value_alts(self.VALUE)
        if entry == "restore":
            journals = {i: CommitJournal() for i in range(3)}
            journals[0].seal(journals[0].begin(
                "admit", request=self.SEQ, tenant=self.TENANT, timeout=None,
                spec={"n": 1},
            ))
            probe.armed = True
            router, report = Router.restore(
                journals, build_alternatives=lambda spec: watched,
                shard_kwargs=dict(slots=1, workers=1), detect=False,
            )
            return router, lambda: report.tickets.get(self.SEQ), []
        shards = [ClusterShard(i, slots=1, workers=1) for i in range(3)]
        router = Router(shards, spill=entry == "spill")
        router.start(detect=False)
        home = router.ring.route(self.TENANT)

        def submit_watched():
            return router.submit(self.TENANT, watched, seq=self.SEQ)

        if entry == "fresh":
            probe.armed = True
            return router, submit_watched, []
        # the home shard's one slot is held; the bystander waits behind
        # it, or, with spill on, stands on the next member in ring order
        started = threading.Event()
        others = [router.submit(self.TENANT, gated_alt(gate, started))]
        assert started.wait(5)
        others.append(router.submit(self.TENANT, value_alts("bystander")))
        if entry == "spill":
            probe.armed = True
            return router, submit_watched, others
        ticket = submit_watched()  # queued on the home shard, unwatched
        probe.armed = True

        def drive():
            gate.set()  # crash() joins the workers
            router.kill_shard(home)
            router.takeover(home)
            return ticket

        return router, drive, others

    @pytest.mark.parametrize("column", COLUMNS, ids=lambda c: c[0])
    @pytest.mark.parametrize(
        "entry", ["fresh", "spill", "takeover", "restore"]
    )
    def test_every_entry_comes_to_rest_through_the_one_path(self, entry, column):
        name, raises, win, everyone, expected = column
        probe = _FirstTarget(self.SEQ, self.VALUE, raises, win, everyone)

        class Probed(ClusterRouter):
            def _adopt(self, shard):
                probe.install(shard)
                super()._adopt(shard)

        gate = threading.Event()
        router, drive, others = self._enter(entry, Probed, probe, gate)
        try:
            try:
                ticket = drive()
            except (AdmissionRejected, NoSurvivingShard):
                assert entry in ("fresh", "spill")  # the caller is told at once
                ticket = None
            gate.set()  # the watched landing is over: free the home shard
            result = None if ticket is None else ticket.result(timeout=10)
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
            assert first != home, "the member with the fewest outstanding is tried first"
            taken_over = raises is not None and (
                isinstance(raises(), JournalCrash) or getattr(raises(), "sent", False)
            )
            assert (first in snap["retired"]) == taken_over
            if committed:
                assert result.value == self.VALUE
                assert (result.shard_id == first) == (
                    name in ("accepts", "journal-crash-after-win", "unknown-after-win")
                )
        finally:
            gate.set()
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

    def test_a_seq_already_in_flight_is_refused_and_the_first_still_resolves(self):
        seq, gate = 10_000, threading.Event()
        with make_router(2).start(detect=False) as router:
            first = router.submit("t", gated_alt(gate), seq=seq)
            refused = None
            try:
                router.submit("t", value_alts(2), seq=seq)
            except ClusterError as exc:
                refused = exc
            gate.set()
            assert first.result(timeout=3).committed
            assert refused is not None and str(seq) in str(refused)
            assert router.snapshot()["inflight"] == 0


def test_a_report_from_a_shard_the_request_does_not_stand_on_settles_nothing():
    # a takeover claims a request before it re-lands it: the old shard's
    # late word must not settle it while it runs somewhere else
    gate = threading.Event()
    with make_router(2).start(detect=False) as router:
        ticket = router.submit("t", gated_alt(gate))
        home = router.ring.route("t")
        late = ServeResult(status="failed", tenant="t", seq=ticket.seq, reason="late")
        router._on_shard_resolve(1 - home, late)
        assert not ticket.done
        gate.set()
        result = ticket.result(timeout=10)
        assert result.committed and result.shard_id == home


def test_a_ticket_callback_runs_outside_the_router_lock():
    # a callback that waits on another thread's submit must not hold
    # that submit up: the router resolves tickets after unlocking
    gate, finished = threading.Event(), threading.Event()
    seen = {}
    with make_router(2).start(detect=False) as router:
        ticket = router.submit("t0", gated_alt(gate))

        def on_done(result):
            helper = threading.Thread(
                target=lambda: seen.setdefault(
                    "ticket", router.submit("t1", value_alts(2))
                ),
            )
            helper.start()
            helper.join(2.0)
            seen["blocked"] = helper.is_alive()
            finished.set()

        ticket.add_done_callback(on_done)
        gate.set()
        assert ticket.result(timeout=10).committed
        assert finished.wait(10)
        assert seen["blocked"] is False
        assert seen["ticket"].result(timeout=10).committed


def named_alternatives(spec):
    def alt(ws):
        return spec["n"]

    return [
        dataclasses.replace(a, name=f"n{spec['n']}.{i}")
        for i, a in enumerate(normalize_alternatives([alt, alt, alt]))
    ]


def timeouts_readmitted(seen):
    """A router class whose shards note each admitted request's
    ``timeout`` in ``seen`` (by seq)."""

    class Watched(ClusterRouter):
        def _adopt(self, shard):
            admit = shard.service.admit

            def watched(request):
                seen[request.seq] = request.timeout
                return admit(request)

            shard.service.admit = watched
            super()._adopt(shard)

    return Watched


def test_timeout_survives_admit_crash_and_restore_on_local_shards():
    """``timeout`` rides router -> shard -> sealed admit -> restore ->
    the re-admitted request."""
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage=storage)
    shard = ClusterShard(
        0, slots=3, workers=1, journal=journal, journal_admission=True,
    )
    router = ClusterRouter([shard]).start(detect=False)
    try:
        # the one worker parks on the first; the second waits in the queue
        # (a jam world fails once its host has crashed: nothing applies)
        jam = CrashJam([shard.service])
        bounded = jam.submit(
            router.submit, "t", worlds=3, spec={"n": 2}, timeout=30.0
        )
        plain = jam.submit(router.submit, "t", worlds=3, spec={"n": 3})
        sealed = {
            i["data"]["request"]: i["data"]["timeout"]
            for i in journal.sealed_unapplied_intents("admit")
        }
        assert sealed == {bounded.seq: 30.0, plain.seq: None}
    finally:
        router.crash()
    readmitted = {}
    restored, report = timeouts_readmitted(readmitted).restore(
        {0: CommitJournal(storage=storage)}, build_alternatives=named_alternatives,
        shard_kwargs=dict(slots=3, workers=1), detect=False,
    )
    try:
        first = report.tickets[bounded.seq].result(timeout=10)
        other = report.tickets[plain.seq].result(timeout=10)
    finally:
        restored.stop()
    assert first.committed and first.value == 2
    assert other.committed and other.value == 3
    assert readmitted == {bounded.seq: 30.0, plain.seq: None}


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
                    break  # a killed live shard runs none of its backlog on the
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
                if any(s["misses"] for s in router.snapshot()["members"]):
                    suspected = True
            assert suspected, "seed 11 should partition the router at least once"
            assert router.shards_up == 2  # everyone recovered
            for i in range(2):
                assert router.shard(i).state is ShardState.UP  # not declared
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
