"""Crash-consistent commit journal + exactly-once source gate.

The paper's soundness story hinges on two moments the kernel alone does
not protect: the atomic "child becomes parent" replacement at commit,
and the rule that speculative worlds never touch non-retryable *sources*
directly. This package makes both survivable:

- :class:`CommitJournal` — a CRC-framed write-ahead intent log (a
  stream of :mod:`repro.util.framing` frames). Every commit,
  elimination, predicate split and source release flows through it as
  an ``intent -> seal -> apply`` transaction; the seal record is the
  durable decision point.
- :class:`SourceGate` — a sink-style façade over a source device.
  Speculative worlds accumulate source effects in a per-world effect
  ledger; at commit the ledger is released to the inner device
  exactly-once under journal sequence numbers, deduplicated by a durable
  *stream-position frontier* (Jefferson-style positional buffering, made
  crash-proof).
- :func:`recover` — the idempotent recovery pass: rolls sealed intents
  forward (redoing un-released source effects through the gate) and
  rolls torn/unsealed ones back. Running it twice is a no-op, which the
  ``DOUBLE_RECOVERY`` fault site exercises.

Fault injection: :class:`~repro.faults.plan.FaultPlan` gains a
``journal`` site (torn record, crash-before-seal, crash-after-seal,
partial device release, double recovery), keyed by transaction sequence
number, so the whole protocol runs under the same deterministic fault
plane as the rest of the robustness suite. An injected crash surfaces as
:class:`~repro.errors.JournalCrash`; only the journal bytes and the
inner devices' real effects survive it.
"""

from repro.journal.gate import SourceGate
from repro.journal.recovery import RecoveryReport, recover
from repro.journal.wal import (
    CommitJournal,
    FileJournalStorage,
    MemoryJournalStorage,
    QuarantineEntry,
    RequestFate,
    find_block_win,
    read_quarantine,
    record_block_win,
    replay_block_win,
    request_fate,
)

__all__ = [
    "CommitJournal",
    "FileJournalStorage",
    "MemoryJournalStorage",
    "QuarantineEntry",
    "RecoveryReport",
    "RequestFate",
    "SourceGate",
    "find_block_win",
    "read_quarantine",
    "record_block_win",
    "recover",
    "replay_block_win",
    "request_fate",
]
