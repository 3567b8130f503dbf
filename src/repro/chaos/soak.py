"""The cross-layer chaos soak: every fault site at once, plus the kill switch.

Each earlier layer earned its own fuzz harness — journal crashes
(``tests/journal/test_journal_fuzz.py``), serve faults, shard failover
(``tests/cluster/test_failover_fuzz.py``). The soak composes *all* of
them in one seeded schedule and adds the two faults only this layer can
inject: whole-cluster cold restarts (:class:`~repro.faults.plan.FaultKind.COLD_RESTART`
at the ``chaos`` site) and snapshot/compaction crashes
(``TORN_SNAPSHOT`` / ``COMPACTION_CRASH`` at the ``snapshot`` site).

One :func:`run_soak` call is one seeded lifetime of a small speculation
cluster: episodes of multi-tenant request bursts, shards dying mid-burst,
heartbeats lost, takeovers (real and stale), journals tearing, the whole
process dying and being rebuilt from the shard journals alone, and the
journals periodically compacted to a snapshot — with the paper's
correctness story checked continuously:

- **exactly-once**: every committed request has exactly one applied
  ``block`` transaction across all journals (and never more than one,
  committed or not);
- **byte-identical**: every committed value equals the request's
  deterministic expected value, no matter how many incarnations,
  takeovers, or replays it went through;
- **no lost acks**: every request whose ``submit`` returned (the durable
  ack) reaches a terminal state — a result, a journal-replayed value, or
  a journalled terminal status — across any number of cold restarts;
- **monotonic seqs**: fresh admissions never reuse or regress the
  cluster-wide request seq, even straight after a restart;
- **bounded replay**: a successful compaction leaves nothing to replay
  (``records_since_snapshot() == 0``), and a reopen after a compaction
  crash either loads the durable snapshot or quarantines the torn one —
  never silently loses the ledger.

Every alternative of request *n* returns the same deterministic value
(:func:`expected_value`), so a replayed, re-landed or re-admitted request
is byte-identical to its first incarnation by construction — any
divergence the soak observes is a real correctness bug, not harness
noise.
"""

from __future__ import annotations

import functools
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

from repro.cluster import (
    ClusterRouter,
    ClusterShard,
    RemoteShardClient,
    host_fault_decision,
)
from repro.errors import (
    AdmissionRejected,
    ClusterError,
    JournalCrash,
    NoSurvivingShard,
)
from repro.faults import CHAOS_SITE, FaultKind, FaultPlan
from repro.journal import (
    CommitJournal,
    FileJournalStorage,
    MemoryJournalStorage,
    request_fate,
)

__all__ = [
    "DEFAULT_RATES",
    "SoakConfig",
    "SoakReport",
    "Violation",
    "build_alternatives",
    "expected_value",
    "run_soak",
]

#: The composed fault cocktail: every layer's sites armed at once, at
#: rates tuned so a default soak sees several of each kind without
#: drowning in them. Override per-run via :attr:`SoakConfig.rates`.
DEFAULT_RATES: dict[FaultKind, float] = {
    # child worlds (the core speculation layer)
    FaultKind.CRASH: 0.08,
    FaultKind.SLOW_START: 0.10,
    # journal txns
    FaultKind.TORN_RECORD: 0.02,
    FaultKind.CRASH_BEFORE_SEAL: 0.02,
    FaultKind.CRASH_AFTER_SEAL: 0.02,
    FaultKind.DOUBLE_RECOVERY: 0.25,
    # serving plane
    FaultKind.REQUEST_BURST: 0.05,
    FaultKind.SLOW_TENANT: 0.03,
    # cluster membership
    FaultKind.SHARD_CRASH: 0.30,
    FaultKind.HEARTBEAT_MISS: 0.10,
    FaultKind.ROUTER_PARTITION: 0.08,
    FaultKind.STALE_TAKEOVER: 0.10,
    # snapshot / compaction
    FaultKind.TORN_SNAPSHOT: 0.20,
    FaultKind.COMPACTION_CRASH: 0.20,
    # the kill switch
    FaultKind.COLD_RESTART: 0.06,
}


def expected_value(n: int) -> int:
    """The one true answer for request ``n`` — every world agrees."""
    return n * 7 + 3


def build_alternatives(spec: dict) -> list:
    """Rebuild request ``spec``'s alternatives (the restore callback).

    All alternatives return :func:`expected_value` of the same ``n``, so
    the committed value is byte-identical whichever world wins and
    however many times the request is replayed or re-landed.
    """
    n = spec["n"]

    def fast(ws) -> int:
        return expected_value(n)

    def steady(ws) -> int:
        time.sleep(0.001)
        return expected_value(n)

    return [fast, steady]


def remote_value(ws, n: int = 0) -> int:
    """Picklable alternative for out-of-process incarnations.

    Remote shard hosts receive their alternatives over the RPC wire, so
    unlike :func:`build_alternatives`'s closures these must be a
    module-level function bound with :func:`functools.partial`.
    """
    time.sleep(0.002)
    return expected_value(n)


def build_remote_alternatives(spec: dict) -> list:
    return [functools.partial(remote_value, n=spec["n"])]


@dataclass(frozen=True)
class Violation:
    """One invariant breach observed by the soak."""

    kind: str
    episode: int
    detail: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "episode": self.episode, "detail": self.detail}


@dataclass
class SoakConfig:
    """One soak run's shape. ``seed`` drives *all* randomness."""

    seed: int = 0
    shards: int = 3
    episodes: int = 4
    requests_per_episode: int = 10
    tenants: int = 3
    slots: int = 2
    workers: int = 3
    queue_depth: int = 64
    #: compact (at a restart boundary) every N episodes; 0 disables
    compact_every: int = 2
    #: drive a manual heartbeat round every N submissions
    heartbeat_every: int = 3
    settle_timeout_s: float = 30.0
    #: override :data:`DEFAULT_RATES` wholesale when set
    rates: dict | None = None
    #: file-backed journals under this directory (default: in-memory)
    storage_dir: str | None = None
    #: dump journals + report here when the run ends with violations
    artifact_dir: str | None = None
    #: after the in-process lifetime, run this many *real-process* kill
    #: incarnations: shard-host processes SIGKILLed mid-burst, takeover,
    #: cross-journal exactly-once audit (0 disables)
    remote_kills: int = 0


@dataclass
class SoakReport:
    """What one seeded soak lifetime did, and whether it stayed correct."""

    seed: int
    episodes: int = 0
    submitted: int = 0
    acked: int = 0
    rejected: int = 0
    committed: int = 0
    replayed: int = 0
    restarts: int = 0
    shard_crashes: int = 0
    remote_kills: int = 0
    compactions: int = 0
    compaction_crashes: int = 0
    quarantines: int = 0
    statuses: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["violations"] = [v.as_dict() for v in self.violations]
        out["ok"] = self.ok
        return out


class _RestartStorm(Exception):
    """The run blew its restart budget; abort and report the violation."""


class _Soak:
    """One run's mutable state (split out so :func:`run_soak` stays flat)."""

    def __init__(self, cfg: SoakConfig) -> None:
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.rates = dict(DEFAULT_RATES if cfg.rates is None else cfg.rates)
        self.plan = FaultPlan(seed=cfg.seed, rates=self.rates)
        self._incarnation = 0
        self.report = SoakReport(seed=cfg.seed)
        self.storages = {
            sid: self._make_storage(sid) for sid in range(cfg.shards)
        }
        #: durable truths the harness tracks across incarnations
        self.expected: dict[int, int] = {}      # acked seq -> expected value
        self.outstanding: dict[int, Any] = {}   # acked seq -> live ticket
        self.terminal: dict[int, str] = {}      # acked seq -> final status
        self.episode = 0
        self._n = 0          # request counter (drives expected values)
        self._last_seq = 0   # monotonic-seq check for fresh admissions
        self._restart_budget = 20 + 4 * cfg.episodes
        self.journals = self._open_journals()
        shards = [self._make_shard(sid) for sid in range(cfg.shards)]
        self.router = ClusterRouter(shards, fault_plan=self.plan)
        self.router.start(detect=False)

    # -- plumbing ----------------------------------------------------------
    def _make_storage(self, sid: int):
        if self.cfg.storage_dir is None:
            return MemoryJournalStorage()
        os.makedirs(self.cfg.storage_dir, exist_ok=True)
        return FileJournalStorage(
            os.path.join(self.cfg.storage_dir, f"shard-{sid}.wal")
        )

    def _journal_plan(self) -> FaultPlan:
        """A fresh (still seeded) fault plan for the next incarnation.

        ``decide()`` is pure in ``(seed, site, key)`` and journal txn
        seqs *recur* after a torn tail is truncated on reopen — with one
        plan for the whole run, the retried write would re-tear
        deterministically on every incarnation and the run could never
        converge. A new process gets new nondeterminism.
        """
        self._incarnation += 1
        return FaultPlan(
            seed=(self.cfg.seed * 1_000_003 + self._incarnation) & 0x7FFFFFFF,
            rates=self.rates,
        )

    def _open_journals(self) -> dict[int, CommitJournal]:
        plan = self._journal_plan()
        journals = {
            sid: CommitJournal(storage=storage, fault_plan=plan)
            for sid, storage in self.storages.items()
        }
        for journal in journals.values():
            self.report.quarantines += len(journal.quarantines)
        return journals

    def _make_shard(self, sid: int) -> ClusterShard:
        return ClusterShard(
            sid,
            slots=self.cfg.slots,
            workers=self.cfg.workers,
            queue_depth=self.cfg.queue_depth,
            journal=self.journals[sid],
            fault_plan=self.plan,
            journal_admission=True,
        )

    def violate(self, kind: str, detail: str) -> None:
        self.report.violations.append(
            Violation(kind=kind, episode=self.episode, detail=detail)
        )

    # -- terminal bookkeeping ----------------------------------------------
    def _record_terminal(self, seq: int, status: str, value: Any) -> None:
        self.outstanding.pop(seq, None)
        prior = self.terminal.get(seq)
        if prior == "committed" and status != "committed":
            return  # a commit is final; later bookkeeping can't demote it
        self.terminal[seq] = status
        self.report.statuses[status] = self.report.statuses.get(status, 0) + 1
        if prior is not None:
            self.report.statuses[prior] = self.report.statuses.get(prior, 1) - 1
        if status == "committed":
            self.report.committed += 1
            if prior == "committed":
                self.report.committed -= 1
            if value != self.expected[seq]:
                self.violate(
                    "value-mismatch",
                    f"request {seq}: committed {value!r}, "
                    f"expected {self.expected[seq]!r}",
                )

    def _sweep_done(self) -> None:
        """Collect every already-resolved ticket (cheap, non-blocking)."""
        for seq, ticket in list(self.outstanding.items()):
            if ticket is not None and ticket.done:
                res = ticket.result(timeout=0)
                if res.replayed:
                    self.report.replayed += 1
                self._record_terminal(seq, res.status, res.value)

    # -- the kill switch ----------------------------------------------------
    def cold_restart(self, reason: str, compact: bool = False) -> None:
        """Whole-process death and rebirth from the journals alone."""
        self._sweep_done()
        self.router.crash()
        self.report.restarts += 1
        if self.report.restarts > self._restart_budget:
            self.violate(
                "restart-storm",
                f"{self.report.restarts} cold restarts (last: {reason}); "
                "the run is not converging",
            )
            raise _RestartStorm(reason)
        self.journals = self._open_journals()
        if compact:
            self._compact_boundary()
        self.router, restart = ClusterRouter.restore(
            self.journals,
            build_alternatives=build_alternatives,
            shard_kwargs=dict(
                slots=self.cfg.slots,
                workers=self.cfg.workers,
                queue_depth=self.cfg.queue_depth,
            ),
            detect=False,
            fault_plan=self.plan,
        )
        for recovery in restart.recoveries.values():
            self.report.quarantines += len(recovery.quarantined)

        # merge the restart report into the harness ledger
        uncovered = {
            seq for seq in self.outstanding if seq not in self.terminal
        }
        for seq, res in restart.results.items():
            if seq in self.expected:
                uncovered.discard(seq)
                self.report.replayed += 1
                self._record_terminal(seq, res.status, res.value)
        for seq, ticket in restart.tickets.items():
            if seq in self.expected:
                uncovered.discard(seq)
                self.outstanding[seq] = ticket
        for seq in restart.dropped:
            if seq in self.expected:
                uncovered.discard(seq)
                self.violate(
                    "dropped-acked-request",
                    f"request {seq} dropped as unrecoverable at restart "
                    f"({reason}): every soak request carries a spec",
                )
                self._record_terminal(seq, "unrecoverable", None)

        # anything still uncovered must be terminal *in the journals*:
        # a request can settle its admit (or apply its win) and lose the
        # ticket resolution to the crash — the journal, not the ticket,
        # is the truth
        for seq in sorted(uncovered):
            fate = request_fate(self.journals, seq)
            if fate.won is not None:
                self._record_terminal(seq, "committed", fate.won[1].value)
            elif fate.settled is not None:
                self._record_terminal(seq, fate.settled, None)
            elif fate.sealed:
                # restore left the admit sealed (placement refused or
                # crashed again); the durable ack still stands — the
                # next restart retries the re-admission
                self.outstanding[seq] = None
            else:
                self.violate(
                    "lost-acked-request",
                    f"request {seq} acked before restart ({reason}) but "
                    "neither replayed, re-admitted, nor journalled terminal",
                )
                self._record_terminal(seq, "lost", None)

    def _compact_boundary(self) -> None:
        """Compact every journal at a restart boundary (quiesced WALs)."""
        for sid, journal in list(self.journals.items()):
            try:
                journal.compact()
            except JournalCrash:
                # TORN_SNAPSHOT poisons the journal; COMPACTION_CRASH
                # leaves a durable snapshot. Either way the process is
                # dead: reopen from the bytes.
                self.report.compaction_crashes += 1
                reopened = CommitJournal(
                    storage=self.storages[sid],
                    fault_plan=self._journal_plan(),
                )
                self.report.quarantines += len(reopened.quarantines)
                if not (reopened.restored_from_snapshot or reopened.quarantines):
                    self.violate(
                        "compaction-recovery",
                        f"shard {sid}: reopen after compaction crash "
                        "neither loaded a snapshot nor quarantined one",
                    )
                self.journals[sid] = reopened
                continue
            self.report.compactions += 1
            if journal.records_since_snapshot() != 0:
                self.violate(
                    "unbounded-replay",
                    f"shard {sid}: {journal.records_since_snapshot()} "
                    "records left to replay straight after compact()",
                )

    # -- fault-driven shard churn -------------------------------------------
    def _kill_scheduled_shards(self, step: int) -> None:
        """SHARD_CRASH verdicts, keeping at least one survivor."""
        n = max(1, self.cfg.requests_per_episode)
        for sid in range(self.cfg.shards):
            frac = self.router.crash_decision(sid, epoch=self.episode)
            if frac is None or step / n < frac:
                continue
            try:
                shard = self.router.shard(sid)
            except ClusterError:
                continue
            if not shard.up or self.router.shards_up <= 1:
                continue
            self.router.kill_shard(sid)
            self.report.shard_crashes += 1

    def _kill_poisoned_shards(self) -> None:
        """A shard whose journal took a torn write is a dead process."""
        for sid in range(self.cfg.shards):
            try:
                shard = self.router.shard(sid)
            except ClusterError:
                continue
            if shard.alive and shard.journal.poisoned:
                if self.router.shards_up <= 1:
                    self.cold_restart("last shard's journal poisoned")
                    return
                self.router.kill_shard(sid)
                self.report.shard_crashes += 1

    # -- the episode loop ----------------------------------------------------
    def run_episode(self) -> None:
        cfg = self.cfg
        for step in range(cfg.requests_per_episode):
            if self.plan.decide(
                CHAOS_SITE, self.episode, step
            ).kind is FaultKind.COLD_RESTART:
                self.plan.note_injection(
                    CHAOS_SITE, FaultKind.COLD_RESTART,
                    detail=f"episode {self.episode} step {step}",
                    track="cluster", episode=self.episode, step=step,
                )
                self.cold_restart(f"scheduled at step {step}")
            self._kill_scheduled_shards(step)
            self._kill_poisoned_shards()
            self._submit_one()
            if cfg.heartbeat_every and step % cfg.heartbeat_every == 0:
                self.router.heartbeat_round()
        self._settle()
        if cfg.compact_every and (self.episode + 1) % cfg.compact_every == 0:
            self.cold_restart("compaction boundary", compact=True)
            self._settle()

    def _submit_one(self) -> None:
        cfg = self.cfg
        n = self._n
        self._n += 1
        spec = {"n": n}
        tenant = f"tenant-{self.rng.randrange(cfg.tenants)}"
        self.report.submitted += 1
        try:
            ticket = self.router.submit(
                tenant, build_alternatives(spec), spec=spec,
            )
        except JournalCrash:
            # the router-level placement walk absorbs per-shard journal
            # crashes; one escaping here means the whole process died
            self.cold_restart("journal crash during admission")
            return
        except AdmissionRejected:
            self.report.rejected += 1
            return
        except NoSurvivingShard:
            self.cold_restart("no surviving shard")
            return
        self.report.acked += 1
        if ticket.seq <= self._last_seq:
            self.violate(
                "seq-regression",
                f"fresh admission got seq {ticket.seq} after {self._last_seq}",
            )
        self._last_seq = max(self._last_seq, ticket.seq)
        self.expected[ticket.seq] = expected_value(n)
        self.outstanding[ticket.seq] = ticket

    def _settle(self) -> None:
        """Wait out every outstanding ticket, nudging the cluster along."""
        deadline = time.monotonic() + self.cfg.settle_timeout_s
        stall_rounds = 0
        while self.outstanding and time.monotonic() < deadline:
            self._sweep_done()
            if not self.outstanding:
                break
            pending = [t for t in self.outstanding.values() if t is not None]
            if not pending:
                # every survivor is awaiting re-admission (restore left
                # its admit sealed): only another restart retries it
                self.cold_restart(
                    f"{len(self.outstanding)} requests awaiting re-admission"
                )
                continue
            try:
                pending[0].result(timeout=0.25)
                stall_rounds = 0
            except ClusterError:
                # not done yet: drive takeovers and re-sweep
                self.router.heartbeat_round()
                self._kill_poisoned_shards()
                stall_rounds += 1
                if stall_rounds >= 20:
                    # stuck requests: a cold restart must recover every
                    # one from the journals (or the coverage check fires)
                    stall_rounds = 0
                    self.cold_restart(
                        f"{len(self.outstanding)} requests stuck at settle"
                    )
        self._sweep_done()

    # -- final audit ---------------------------------------------------------
    def finish(self) -> SoakReport:
        self._settle()
        # one last death-and-rebirth so end-of-run state is provably durable
        self.cold_restart("final durability check")
        self._settle()
        audit = self.router.audit_applied()
        self.router.stop()
        for seq, count in sorted(audit.items()):
            if count > 1:
                self.violate(
                    "double-apply",
                    f"request {seq}: {count} applied block txns across "
                    "the shard journals",
                )
        for seq, status in sorted(self.terminal.items()):
            if status == "committed" and audit.get(seq, 0) != 1:
                self.violate(
                    "exactly-once",
                    f"request {seq} committed but has "
                    f"{audit.get(seq, 0)} applied block txns",
                )
        for seq in sorted(self.expected):
            if seq not in self.terminal:
                self.violate(
                    "unsettled-request",
                    f"request {seq} acked but never reached a terminal "
                    "state",
                )
        self.report.episodes = self.episode
        if self.report.violations and self.cfg.artifact_dir:
            _dump_artifacts(self)
        return self.report


def _dump_artifacts(soak: _Soak) -> None:
    """Write the failing run's journals + report for post-mortem."""
    out = os.path.join(soak.cfg.artifact_dir, f"seed-{soak.cfg.seed}")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(soak.report.as_dict(), fh, indent=2, default=str)
    for sid, storage in soak.storages.items():
        with open(os.path.join(out, f"shard-{sid}.wal"), "wb") as fh:
            fh.write(storage.load())
        journal = soak.journals.get(sid)
        if journal is not None and journal.quarantines:
            path = os.path.join(out, f"shard-{sid}.quarantine.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(
                    [q.as_dict() for q in journal.quarantines], fh, indent=2,
                )


def run_remote_incarnation(
    seed: int,
    *,
    shards: int = 3,
    requests: int = 12,
    workdir: str | None = None,
) -> tuple[list[Violation], int]:
    """One real-process fault incarnation: shard hosts SIGKILLed or
    SIGSTOPped mid-burst.

    The in-process soak kills shards by dropping their objects; here the
    shard is an OS process and the kill is a literal ``SIGKILL`` — no
    drain, no goodbye, only its journal file survives — and a freeze is
    a literal ``SIGSTOP``: the host stays alive and silent while the
    burst goes on (a submit homed there times out, which makes the
    router crash it before walking on), then gets its ``SIGCONT``. The
    fault plan's ``transport`` site decides which hosts suffer what (one
    survivor always kept); every request must still commit its
    deterministic value, the cross-journal audit must show exactly
    one applied ``block`` txn per commit, and no host may outlive
    ``router.stop()``.

    Returns ``(violations, hosts_killed)`` so :func:`run_soak` can merge
    the outcome into its report.
    """
    violations: list[Violation] = []
    plan = FaultPlan(
        seed=seed,
        rates={FaultKind.HOST_SIGKILL: 0.6, FaultKind.HOST_SIGSTOP: 0.3},
        host_kill_fraction=0.5,
    )
    scratch = workdir or tempfile.mkdtemp(prefix=f"mw-soak-remote-{seed}-")
    remotes = [
        RemoteShardClient(
            sid,
            workdir=os.path.join(scratch, f"shard{sid}"),
            slots=2, workers=2, call_timeout_s=0.4,
        )
        for sid in range(shards)
    ]
    router = ClusterRouter(remotes).start(detect=False)
    kills = 0
    try:
        verdicts = [
            (sid, verdict) for sid in range(shards)
            if (verdict := host_fault_decision(plan, sid)) is not None
        ][: shards - 1]  # keep one survivor
        strike_at = int(plan.host_kill_fraction * requests)
        thaw_at: dict[int, float] = {}
        tickets = []
        for i in range(requests):
            if i == strike_at:
                for sid, (kind, param) in verdicts:
                    if kind is FaultKind.HOST_SIGKILL:
                        remotes[sid].sigkill()
                        router.takeover(sid)
                        kills += 1
                    else:
                        remotes[sid].sigstop()
                        thaw_at[sid] = time.monotonic() + param
            tickets.append(
                router.submit(
                    f"tenant-{i % 3}", build_remote_alternatives({"n": i})
                )
            )
        for sid, at in thaw_at.items():
            time.sleep(max(0.0, at - time.monotonic()))
            remotes[sid].sigcont()
        results = [t.result(timeout=30.0) for t in tickets]
        for i, res in enumerate(results):
            if not res.committed:
                violations.append(Violation(
                    kind="remote-lost-ack",
                    episode=-1,
                    detail=f"seed {seed}: request {i} ended "
                           f"{res.status}/{res.reason} after a host fault",
                ))
            elif res.value != expected_value(i):
                violations.append(Violation(
                    kind="remote-value-drift",
                    episode=-1,
                    detail=f"seed {seed}: request {i} committed "
                           f"{res.value!r}, expected {expected_value(i)}",
                ))
        audit = router.audit_applied()
        for res in results:
            if res.committed and audit.get(res.seq, 0) != 1:
                violations.append(Violation(
                    kind="remote-exactly-once",
                    episode=-1,
                    detail=f"seed {seed}: request {res.seq} has "
                           f"{audit.get(res.seq, 0)} applied block txns "
                           "across the host journals",
                ))
    finally:
        router.stop()
        for shard in remotes:
            if shard.process_alive():
                violations.append(Violation(
                    kind="remote-host-unreaped",
                    episode=-1,
                    detail=f"seed {seed}: host {shard.shard_id} (pid "
                           f"{shard.pid}) still alive after router.stop()",
                ))
        if not violations:
            # keep the host journals for post-mortem only on failure
            shutil.rmtree(scratch, ignore_errors=True)
    return violations, kills


def run_soak(config: SoakConfig | None = None, **kwargs: Any) -> SoakReport:
    """Run one seeded chaos-soak lifetime; returns its :class:`SoakReport`.

    Accepts either a prebuilt :class:`SoakConfig` or its fields as
    keyword arguments (``run_soak(seed=7, episodes=2)``).
    """
    cfg = config if config is not None else SoakConfig(**kwargs)
    soak = _Soak(cfg)
    try:
        for episode in range(cfg.episodes):
            soak.episode = episode
            soak.run_episode()
        report = soak.finish()
        for k in range(cfg.remote_kills):
            # real-process coda: same seed family, hosts die by SIGKILL
            workdir = (
                os.path.join(cfg.artifact_dir, f"seed-{cfg.seed}",
                             f"remote-{k}")
                if cfg.artifact_dir else None
            )
            violations, kills = run_remote_incarnation(
                cfg.seed * 101 + k, workdir=workdir,
            )
            report.violations.extend(violations)
            report.remote_kills += kills
        return report
    except _RestartStorm:
        soak.report.episodes = soak.episode
        if cfg.artifact_dir:
            _dump_artifacts(soak)
        return soak.report
    finally:
        try:
            soak.router.stop()
        except Exception:  # noqa: BLE001 - already stopped/crashed is fine
            pass
