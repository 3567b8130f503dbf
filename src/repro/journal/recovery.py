"""The idempotent recovery pass.

After a crash, the survivors are the journal bytes and the inner
devices' real effects. Recovery restores the invariant "every sealed
transaction happened, every unsealed one did not":

1. the journal's own *open* already repaired any torn tail (truncating
   the half-written record a torn-intent crash left behind);
2. **roll back**: every intent with neither seal nor abort is aborted —
   the decision never became durable, so it never happened. A re-run
   will make it again (or not) deterministically;
3. **roll forward**: every sealed-but-unapplied transaction is
   completed. For ``release`` transactions the intent carries the full
   effect ledger, so the remaining entries are redone through the gate
   (the frontier skips the ones the dead incarnation already released);
   every other kind's apply phase lives in volatile kernel state that a
   deterministic re-run rebuilds, so the durable part of rolling forward
   is just the ``applied`` marker.

Every step is idempotent — abort and ``mark_applied`` are no-ops on
repeat, and redo dedups by frontier — so running recovery twice changes
nothing. The ``DOUBLE_RECOVERY`` fault kind (decided at the reserved
key :data:`~repro.faults.plan.RECOVERY_KEY`, not per-transaction)
exercises exactly that: when it fires, the pass runs twice and the
report's counters must not change on the second lap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import JournalCrash
from repro.faults.plan import JOURNAL_SITE, RECOVERY_KEY, FaultKind
from repro.journal.wal import CommitJournal, QuarantineEntry


@dataclass
class RecoveryReport:
    """What one :func:`recover` call did (summed over its passes)."""

    rolled_forward: list[int] = field(default_factory=list)
    rolled_back: list[int] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)
    deferred: list[int] = field(default_factory=list)
    quarantined: list[QuarantineEntry] = field(default_factory=list)
    redone_entries: int = 0
    repaired_bytes: int = 0
    passes: int = 1
    double_recovery: bool = False

    @property
    def clean(self) -> bool:
        """True when there was nothing to repair, roll back or redo."""
        return not (
            self.rolled_forward or self.rolled_back
            or self.redone_entries or self.repaired_bytes
            or self.quarantined
        )


def recover(
    journal: CommitJournal, gates=(), fault_plan=None,
    defer_kinds: tuple[str, ...] = ("admit",),
) -> RecoveryReport:
    """Roll the journal's transactions to a consistent state. Idempotent.

    Parameters
    ----------
    journal:
        A freshly (re)opened :class:`~repro.journal.wal.CommitJournal`
        (opening already repaired any torn tail).
    gates:
        The :class:`~repro.journal.gate.SourceGate` instances rebuilt
        over this journal, by which un-released source effects of sealed
        ``release`` transactions are redone. A release transaction whose
        gate is absent is left sealed for a later recovery and counted
        in ``report.skipped``.
    fault_plan:
        Overrides the journal's plan for the ``DOUBLE_RECOVERY``
        decision (the only fault this pass itself is subject to — it is
        a repeat, not a crash).
    defer_kinds:
        Sealed-but-unapplied kinds to leave sealed (reported in
        ``report.deferred``) instead of blindly marking applied: an
        ``admit`` txn's apply phase is *serving the request*, which only
        the restart path (``SpeculationService.restore`` /
        ``ClusterRouter.restore``) can redo — marking it applied here
        would silently drop the admitted request.

    The report also carries ``journal.quarantines`` — one structured
    :class:`~repro.journal.wal.QuarantineEntry` (site, offset, length,
    CRC expected/got) per byte stretch the open quarantined.
    """
    plan = fault_plan if fault_plan is not None else journal.fault_plan
    double = False
    if plan is not None:
        double = (
            plan.decide(JOURNAL_SITE, RECOVERY_KEY).kind
            is FaultKind.DOUBLE_RECOVERY
        )
        if double:
            plan.note_injection(
                JOURNAL_SITE, FaultKind.DOUBLE_RECOVERY,
                detail="recovery pass will run twice", track="journal",
            )
    report = RecoveryReport(
        repaired_bytes=journal.repaired_bytes,
        passes=2 if double else 1,
        double_recovery=double,
        quarantined=list(journal.quarantines),
    )
    gate_map = {gate.name: gate for gate in gates}
    obs = journal.obs
    if obs is not None:
        with obs.tracer.span("recovery", cat="journal", track="journal") as h:
            for _ in range(report.passes):
                _one_pass(journal, gate_map, report, defer_kinds)
            h.settle(
                "committed",
                rolled_forward=len(report.rolled_forward),
                rolled_back=len(report.rolled_back),
                skipped=len(report.skipped),
                deferred=len(report.deferred),
                quarantined=len(report.quarantined),
                redone_entries=report.redone_entries,
                repaired_bytes=report.repaired_bytes,
                passes=report.passes,
                clean=report.clean,
            )
        c = obs.registry.counter(
            "mw_recoveries_total", "Recovery passes run", labelnames=("clean",)
        )
        c.inc(clean=str(report.clean).lower())
    else:
        for _ in range(report.passes):
            _one_pass(journal, gate_map, report, defer_kinds)
    return report


def _one_pass(
    journal: CommitJournal, gates: dict, report: RecoveryReport,
    defer_kinds: tuple[str, ...],
) -> None:
    for seq in journal.unsealed_txns():
        journal.abort(seq, reason="recovery rollback")
        report.rolled_back.append(seq)
    for seq in journal.sealed_unapplied():
        intent = journal.intent(seq)
        if intent["kind"] in defer_kinds:
            if seq not in report.deferred:
                report.deferred.append(seq)
            continue
        if intent["kind"] == "release":
            gate = gates.get(intent["data"]["device"])
            if gate is None:
                report.skipped.append(seq)
                continue
            report.redone_entries += gate.redo_release(
                seq, intent["data"]["entries"]
            )
        journal.mark_applied(seq, recovered=True)
        report.rolled_forward.append(seq)


def settle_best_effort(journal: CommitJournal, seq: int, status: str) -> None:
    """Mark an ``admit`` applied, tolerating a dead (poisoned) journal — one
    can die under any settle, even mid-restore, when a re-admission's
    admit write tears it. Settling is pure bookkeeping: a refused write
    leaves the admit sealed, which is exactly what the next restore
    replays or deduplicates, so losing the settle loses nothing."""
    try:
        journal.mark_applied(seq, status=status)
    except JournalCrash:
        pass
