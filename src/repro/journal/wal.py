"""The write-ahead commit journal.

One append-only byte stream of CRC-framed records:

    magic ``MWJRNL1\\n`` once, then repeated
    :mod:`repro.util.framing` frames, each of one pickled record

A record whose frame is incomplete or whose checksum does not match is a
*torn tail*: opening the journal truncates it away (crash-during-append
is expected, not fatal) without ever unpickling unverified bytes.

Transactions follow the intent -> seal -> apply protocol:

====== ================================================================
record meaning
====== ================================================================
intent ``begin(kind, **data)`` — what is about to happen, with enough
       data to redo it (a ``release`` intent carries the full effect
       ledger).
seal   the durable decision point. A sealed transaction *will* happen:
       recovery rolls it forward. An unsealed one never happened:
       recovery rolls it back (abort record).
applied the apply phase finished; recovery skips the transaction.
abort  the transaction was rolled back (recovery, or a voluntary
       abandon before seal).
release one source effect reached the inner device: ``(device, eid,
       pos_start, pos_end)``. The per-device maximum ``pos_end`` is the
       durable *release frontier* — the exactly-once dedup line.
read   fresh bytes consumed from a real source (``note_read``); the
       gate's replay buffer is rebuilt from these, so destructive
       scripted input is consumed exactly once across crash/re-run.
====== ================================================================

Consecutive phases of one transaction with nothing between them (a
real backend's block win, a service's admit) are written inside ``with
journal.group():`` — the same records through the same ``begin`` /
``seal`` / ``mark_applied``, reaching storage as one append (one write,
one fsync) when the scope closes, an injected crash included: every
fault site leaves the bytes it leaves ungrouped. A record enters the
ledger only after the append covering it returns.

Snapshots & compaction: ``snapshot()`` appends one ``SNAP_MAGIC``-marked
CRC frame checkpointing the whole ledger (applied frontier, release
positions, reads, live intents); reopening loads the latest snapshot and
replays only the suffix, so replay length is bounded by
records-since-snapshot. ``compact()`` atomically rewrites the file to
``magic + snapshot`` (temp file + rename + parent-dir fsync). A torn or
corrupt snapshot is *quarantined* — reported as a
:class:`QuarantineEntry` and copied to the storage's ``.quarantine``
sidecar — and recovery degrades to full replay of the surviving
records rather than losing data or crashing.

Positions, not effect ids, carry the exactly-once guarantee: a re-run
after recovery restarts its eid counters, but deterministic re-execution
regenerates the same output stream, so byte positions line up and the
frontier deduplicates them.

Fault injection (``JOURNAL_SITE``, keyed by transaction seq — one
decision per transaction, first hit wins):

- ``TORN_RECORD``: half the intent frame reaches storage, then the
  process dies (:class:`~repro.errors.JournalCrash`);
- ``CRASH_BEFORE_SEAL`` / ``CRASH_AFTER_SEAL``: armed at ``begin``,
  fired by ``seal`` around the seal append;
- ``PARTIAL_RELEASE``: armed at ``begin``, consumed by the
  :class:`~repro.journal.gate.SourceGate` release loop via
  :meth:`CommitJournal.take_armed`;
- ``DOUBLE_RECOVERY`` is decided at the reserved key
  :data:`~repro.faults.plan.RECOVERY_KEY` by :func:`repro.journal.recovery.recover`.

The ``snapshot`` site is keyed by snapshot index: ``TORN_SNAPSHOT``
(half the snapshot frame reaches storage, then the process dies) and
``COMPACTION_CRASH`` (the snapshot is durable, but the process dies
before the compaction rewrite).
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from sys import intern
from typing import Any, Mapping, NamedTuple

from repro.core.outcome import AlternativeResult, BlockOutcome
from repro.errors import JournalCrash, JournalError
from repro.faults.plan import JOURNAL_SITE, SNAPSHOT_SITE, FaultKind
from repro.util.framing import (
    BAD_CRC,
    HEADER_SIZE,
    TORN_BODY,
    TORN_HEADER,
    FrameDamage,
    frame,
    parse_header,
    read_frame,
)

MAGIC = b"MWJRNL1\n"
#: Marker preceding a snapshot frame. A snapshot interprets as a regular
#: frame header of ~1.3 GB, so at a record boundary the marker is
#: unambiguous — which is what lets the scanner *step over* a corrupt
#: snapshot (its frame declares its length) instead of truncating the
#: good records behind it.
SNAP_MAGIC = b"MWSNAP1\n"

#: The verdict the codec cannot give: the CRC passed, the pickle did not load.
_UNPICKLABLE = "unpicklable"
#: Quarantine reasons, by what was being read and what was wrong with it.
_REASONS = {
    False: {
        TORN_HEADER: "torn frame header", TORN_BODY: "torn record body",
        BAD_CRC: "record CRC mismatch", _UNPICKLABLE: "record unpicklable",
    },
    True: {
        TORN_HEADER: "torn snapshot frame header",
        TORN_BODY: "torn snapshot body",
        BAD_CRC: "snapshot CRC mismatch", _UNPICKLABLE: "snapshot unpicklable",
    },
}

#: Intent kinds that are looked up once per request, and the ``data``
#: field that identifies them. ``find_sealed`` / ``find_applied`` answer
#: a match naming that field from a keyed index instead of scanning
#: every txn; any other kind or match shape takes the scan.
_LOOKUP_KEY = {"block": "block", "admit": "request"}

#: The strings every record repeats: top-level keys, record types, the
#: keyed kinds. Each record is unpickled on its own, so without this
#: table every record read back holds a private copy of them;
#: ``_lean`` swaps them for these.
_SHARED = {
    s: s for s in (
        "t", "seq", "kind", "data", "reason", "device", "eid", "pos_start",
        "pos_end", "intent", "seal", "applied", "abort", "release", "read",
        *_LOOKUP_KEY,
    )
}


@dataclass(frozen=True)
class QuarantineEntry:
    """One quarantined stretch of journal bytes, structurally reported.

    ``site`` is where the damage was found (``"snapshot"`` for a
    torn/corrupt snapshot record, ``"tail"`` for a torn record tail);
    ``offset``/``length`` locate the bytes in the pre-repair stream, and
    the CRC pair records what the frame promised vs what the bytes
    hashed to (None when the frame was too torn to carry a checksum).
    """

    site: str
    offset: int
    length: int
    reason: str
    crc_expected: int | None = None
    crc_got: int | None = None

    def as_dict(self) -> dict:
        return {
            "site": self.site, "offset": self.offset, "length": self.length,
            "reason": self.reason, "crc_expected": self.crc_expected,
            "crc_got": self.crc_got,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuarantineEntry":
        """Rebuild an entry from an :meth:`as_dict` image (sidecar line).

        Tolerates the extra keys a sidecar line carries (``blob_len``,
        ``blob_hex``) but insists on the structural fields — a line
        missing them is malformed and raises ``KeyError``/``TypeError``
        for :func:`read_quarantine` to skip.
        """
        return cls(
            site=data["site"],
            offset=int(data["offset"]),
            length=int(data["length"]),
            reason=data["reason"],
            crc_expected=data.get("crc_expected"),
            crc_got=data.get("crc_got"),
        )

#: A txn's states, as :meth:`CommitJournal.status` names them, in the
#: order records move a txn along: one only ever raises it. The order is
#: also ``status``'s precedence (applied over aborted over sealed).
_RANK = {"open": 0, "sealed": 1, "aborted": 2, "applied": 3}
#: The states a txn is in once it has its ``t`` record (``_has``).
_HAS = {"seal": ("sealed", "applied"), "applied": ("applied",), "abort": ("aborted",)}
#: A ledger entry's seq.
_SEQ = itemgetter(1)


class _Shape:
    """What every ledger entry of one kind, state and data layout shares.

    A ledger entry is one tuple per txn, ``(shape, seq, *data values,
    *applied values)``; its shape names the values (``fields``, then
    ``applied``), and ``split`` is where the applied values start.
    ``kind`` is None for a txn known only by a later record: an aborted
    txn whose intent a snapshot dropped. ``moves`` caches the shape each
    later record moves an entry to (see ``CommitJournal._move``).
    """

    __slots__ = ("kind", "state", "fields", "applied", "split", "moves")

    def __init__(self, kind: str | None, state: str, fields: tuple, applied: tuple):
        self.kind, self.state = kind, state
        self.fields, self.applied = fields, applied
        self.split = 2 + len(fields)
        self.moves: dict = {}


def _intent_of(entry: tuple) -> dict:
    """The intent record ``entry`` stands for, built afresh."""
    shape = entry[0]
    return {
        "t": "intent", "seq": entry[1], "kind": shape.kind,
        "data": dict(zip(shape.fields, entry[2 : shape.split])),
    }


def _applied_of(entry: tuple) -> dict:
    """The data ``entry``'s applied record carried, built afresh."""
    shape = entry[0]
    return dict(zip(shape.applied, entry[shape.split :]))


class _OpenGroup(threading.local):
    """Per thread: the frames of its open :meth:`CommitJournal.group`."""

    frames: list | None = None


#: Fault kinds armed at ``begin`` and fired later in the transaction.
_ARMED_KINDS = (
    FaultKind.CRASH_BEFORE_SEAL,
    FaultKind.CRASH_AFTER_SEAL,
    FaultKind.PARTIAL_RELEASE,
)


class MemoryJournalStorage:
    """Journal bytes in memory — the fuzz harness's simulated disk.

    The instance outlives the process-under-test: a crash discards the
    :class:`CommitJournal` object but keeps this storage, exactly like a
    real disk surviving a process death. Quarantined byte stretches are
    kept in :attr:`quarantine_log` (the in-memory ``.quarantine``
    sidecar) so tests can assert on the structured report.
    """

    def __init__(self, data: bytes = b"") -> None:
        self._buf = bytearray(data)
        self.quarantine_log: list[dict] = []

    def load(self) -> bytes:
        return bytes(self._buf)

    def append(self, blob: bytes) -> None:
        self._buf.extend(blob)

    def truncate(self, size: int) -> None:
        del self._buf[size:]

    def replace(self, data: bytes) -> None:
        """Atomically swap the whole journal image (compaction)."""
        self._buf = bytearray(data)

    def quarantine(self, blob: bytes, entry: dict) -> None:
        self.quarantine_log.append({**entry, "blob": bytes(blob)})

    def __len__(self) -> int:
        return len(self._buf)


class FileJournalStorage:
    """Journal bytes in a real file, fsynced per append.

    Durability notes:

    - The parent directory is fsynced after the file is first created
      and after every :meth:`replace` rename: fsyncing a file makes its
      *bytes* durable, but a directory entry that was never synced can
      vanish wholesale on power loss, taking the freshly created or
      renamed name with it.
    - Appends go through ordinary ``open(..., "ab")`` (``O_APPEND``).
      The kernel guarantees each write lands at the current end of file
      — no interleaving, no overwrites — but a power cut mid-write can
      still leave a *torn final record*: a prefix of the frame. That is
      expected and safe, not a durability bug: the CRC framing detects
      the torn tail and :class:`CommitJournal` quarantines + truncates
      it on open. ``O_APPEND`` rules out corruption of *earlier*
      records, not partial *final* ones.
    - :meth:`replace` (compaction) writes a temp file, fsyncs it, then
      ``os.replace``\\ s over the journal and fsyncs the directory — a
      crash at any point leaves either the old image or the new one,
      never a mix.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    @property
    def quarantine_path(self) -> str:
        return self.path + ".quarantine"

    def _fsync_dir(self) -> None:
        parent = os.path.dirname(os.path.abspath(self.path))
        try:
            fd = os.open(parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def load(self) -> bytes:
        try:
            with open(self.path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""

    def append(self, blob: bytes) -> None:
        created = not os.path.exists(self.path)
        with open(self.path, "ab") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        if created:
            self._fsync_dir()

    def truncate(self, size: int) -> None:
        if os.path.exists(self.path):
            os.truncate(self.path, size)

    def replace(self, data: bytes) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._fsync_dir()

    def quarantine(self, blob: bytes, entry: dict) -> None:
        """Append one JSONL report to the ``.quarantine`` sidecar.

        The damaged bytes ride along hex-encoded (capped at 4 KiB) so a
        post-mortem can inspect exactly what was dropped.
        """
        entry = dict(entry)
        entry["blob_len"] = len(blob)
        entry["blob_hex"] = blob[:4096].hex()
        with open(self.quarantine_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._fsync_dir()

    def read_quarantine(self) -> list[tuple[QuarantineEntry, bytes]]:
        """Parse this journal's ``.quarantine`` sidecar (see
        :func:`read_quarantine`); empty list when none exists."""
        return read_quarantine(self.quarantine_path)

    def __len__(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0


def read_quarantine(path: str) -> list[tuple[QuarantineEntry, bytes]]:
    """Parse a ``.quarantine`` sidecar into structured entries.

    Returns ``(entry, blob)`` pairs — ``blob`` is the quarantined bytes
    as written (hex-decoded, capped at 4 KiB by the writer; ``b""`` when
    the line carried none). The sidecar is itself append-only and
    unsynced against crashes at the *line* level, so damage is expected:
    a malformed or truncated line (bad JSON, missing structural fields,
    odd-length hex) is **skipped with a warning**, never an exception —
    a restore must not die on the report of an earlier corruption.
    """
    out: list[tuple[QuarantineEntry, bytes]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError):
        return out
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                raise TypeError(f"sidecar line is {type(data).__name__}")
            entry = QuarantineEntry.from_dict(data)
            blob = bytes.fromhex(data.get("blob_hex", "") or "")
        except (ValueError, TypeError, KeyError) as exc:
            warnings.warn(
                f"skipping malformed quarantine line {lineno} of {path}: "
                f"{type(exc).__name__}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        out.append((entry, blob))
    return out


def _lean(record: dict) -> dict:
    """``record`` holding the strings every record repeats as one shared
    copy: its keys, its ``t`` / ``kind`` values and its data's field
    names. Each record is unpickled on its own, so a list of them would
    otherwise hold a private copy of each (≈ 1.7 KB of a request's six
    records)."""
    share = _SHARED.get
    lean = {}
    for key in record:  # a plain loop: measurably cheaper here than a comprehension
        lean[share(key, key)] = record[key]
    t = lean["t"] = share(lean["t"], lean["t"])
    if t == "intent":
        lean["kind"] = share(lean["kind"], lean["kind"])
    data = lean.get("data")
    if type(data) is dict:
        lean["data"] = {intern(k) if type(k) is str else k: data[k] for k in data}
    return lean


def _scan(raw: bytes):
    """One pass over a journal image, touching nothing but the bytes.

    Yields ``(what, item)`` in stream order: ``"record"`` with the
    record, ``"snapshot"`` with the state of each loadable snapshot, and
    a ``(QuarantineEntry, blob)`` pair under ``"damage"`` for a stretch
    that is stepped over or ``"torn"`` for one that runs to the end —
    the valid stream stops where that entry starts (a reopen truncates
    there; a reader of a live journal just stops).
    """
    offset, end = len(MAGIC), len(raw)
    while offset < end:
        snap = raw.startswith(SNAP_MAGIC, offset)
        at = offset + len(SNAP_MAGIC) if snap else offset
        try:
            body, after = read_frame(raw, at)
        except FrameDamage as damage:
            # CRC checked before unpickle — unverified bytes are
            # never deserialised.
            verdict = damage.verdict
            crcs = (damage.crc_expected, damage.crc_got)
        else:
            try:
                item = pickle.loads(body)
            except Exception:  # pragma: no cover - CRC passed, unreadable
                verdict = _UNPICKLABLE
                crcs = (parse_header(raw, at)[1],) * 2
            else:
                yield ("snapshot" if snap else "record"), item
                offset = after
                continue
        # A snapshot that is *complete but corrupt* is stepped over —
        # its frame header declares its length — so every record behind
        # it still replays: corruption degrades to full-replay recovery,
        # never to data loss. (If the length field itself was damaged,
        # the step lands mid-stream and the next frame fails its CRC,
        # truncating from there.) Anything else is a torn tail.
        stepped = snap and verdict in (BAD_CRC, _UNPICKLABLE)
        stop = at + HEADER_SIZE + parse_header(raw, at)[0] if stepped else end
        yield ("damage" if stepped else "torn"), (
            QuarantineEntry(
                site="snapshot" if snap else "tail", offset=offset,
                length=stop - offset, reason=_REASONS[snap][verdict],
                crc_expected=crcs[0], crc_got=crcs[1],
            ),
            raw[offset:stop],
        )
        offset = stop


class CommitJournal:
    """The append-only intent log, with torn-tail repair on open.

    Parameters
    ----------
    storage:
        A :class:`MemoryJournalStorage` / :class:`FileJournalStorage`
        (anything with ``load``/``append``/``truncate``). Defaults to a
        fresh in-memory store.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan`; enables the
        ``journal`` fault site (see the module docstring).
    obs:
        Optional :class:`~repro.obs.Observability`. Each transaction
        becomes one span on the ``journal`` track (opened at intent,
        settled ``committed`` at applied / ``aborted`` at abort), and
        every protocol step increments
        ``mw_journal_txns_total{kind,phase}``. Journal spans use the
        tracer's wall clock.
    """

    def __init__(self, storage=None, fault_plan=None, obs=None) -> None:
        self.storage = storage if storage is not None else MemoryJournalStorage()
        self.fault_plan = fault_plan
        self.obs = obs
        self._txn_spans: dict[int, int] = {}
        self._txn_c = None
        self._snap_c = self._compact_c = self._quar_c = None
        if obs is not None:
            self._txn_c = obs.registry.counter(
                "mw_journal_txns_total", "Journal protocol steps",
                labelnames=("kind", "phase"),
            )
            self._snap_c = obs.registry.counter(
                "mw_journal_snapshots_total", "Snapshot records written",
            )
            self._compact_c = obs.registry.counter(
                "mw_journal_compactions_total", "WAL compactions completed",
            )
            self._quar_c = obs.registry.counter(
                "mw_journal_quarantines_total",
                "Journal byte stretches quarantined on open",
                labelnames=("site",),
            )
            obs.tracer.set_track_name("journal", "commit journal")
            if fault_plan is not None:
                obs.watch_fault_plan(fault_plan)
        # the ledger: seq -> one entry per txn (see _Shape), in the order
        # intents arrived; the shapes its entries share; and the applied
        # seqs in the order they were applied (a snapshot writes both
        # orders as the records gave them)
        self._txns: dict[int, tuple] = {}
        self._shapes: dict[tuple, _Shape] = {}
        self._applied_order: list[int] = []
        # the lookup index, beside the ledger and never persisted: per
        # keyed kind, key -> seq of the first intent carrying it, plus
        # key -> later seqs for the rare key that repeats (a block's
        # retried attempts, a re-admitted request)
        self._first_by_key: dict[str, dict] = {k: {} for k in _LOOKUP_KEY}
        self._later_by_key: dict[str, dict] = {k: {} for k in _LOOKUP_KEY}
        self._frontiers: dict[str, int] = {}
        self._reads: dict[str, bytearray] = {}
        self._armed: dict[int, FaultKind] = {}
        # guards the two counters threads read, change and write back;
        # never held across ``storage.append`` (fsyncs must overlap)
        self._count_lock = threading.Lock()
        self._local = _OpenGroup()
        self._next_seq = 1
        self._snap_index = 0
        #: records in storage after the latest snapshot — what a reopen
        #: replays, and what :meth:`records` decodes
        self._since_snapshot = 0
        self._last_snapshot_frame: bytes | None = None
        self.repaired_bytes = 0
        self.restored_from_snapshot = False
        #: set after a torn write: the owning process is dead, and any
        #: further append would be silently truncated away on reopen
        #: (the scanner stops at the torn frame) — so refuse them.
        self.poisoned = False
        self.snapshots_loaded = 0
        self.quarantines: list[QuarantineEntry] = []
        self._open()

    # -- opening / torn-tail repair ----------------------------------------
    def _open(self) -> None:
        raw = self.storage.load()
        if not raw:
            self.storage.append(MAGIC)
            return
        if not raw.startswith(MAGIC):
            if len(raw) < len(MAGIC) and MAGIC.startswith(raw):
                # crash during the very first append: torn magic
                self.repaired_bytes = len(raw)
                self.storage.truncate(0)
                self.storage.append(MAGIC)
                return
            raise JournalError("not a commit journal (bad magic)")
        for what, item in _scan(raw):
            if what == "record":
                self._index(item)
                self._since_snapshot += 1
            elif what == "snapshot":
                self._load_snapshot(item)
            else:
                entry, blob = item
                self._quarantine(entry, blob)
                if what == "torn":
                    self.repaired_bytes = entry.length
                    self.storage.truncate(entry.offset)

    def _load_snapshot(self, state: dict) -> None:
        """Adopt a snapshot's ledger, discarding the records before it.

        The snapshot captured exactly the index state the preceding
        records would have rebuilt, so replacing is equivalence, not
        loss; replay length from here on is bounded by the records
        *after* the snapshot.
        """
        self._txns = {}
        self._applied_order = []
        for by_key in (self._first_by_key, self._later_by_key):
            for index in by_key.values():
                index.clear()
        for intent in state["intents"].values():
            self._index(intent)
        for seq in state["sealed"]:
            self._move(seq, "sealed")
        for seq, data in state["applied"].items():
            self._move(seq, "applied", data)
        for seq in state["aborted"]:
            self._move(seq, "aborted")
        self._frontiers = dict(state["frontiers"])
        self._reads = {d: bytearray(b) for d, b in state["reads"].items()}
        self._next_seq = max(self._next_seq, int(state["next_seq"]))
        self._snap_index = max(self._snap_index, int(state["snap_index"]))
        self._since_snapshot = 0
        self.restored_from_snapshot = True
        self.snapshots_loaded += 1

    def _quarantine(self, entry: QuarantineEntry, blob: bytes) -> None:
        self.quarantines.append(entry)
        sidecar = getattr(self.storage, "quarantine", None)
        if sidecar is not None:
            sidecar(blob, entry.as_dict())
        if self._quar_c is not None:
            self._quar_c.inc(site=entry.site)

    def _shape(self, kind, state: str, fields: tuple, applied: tuple) -> _Shape:
        """The one shape of this layout (the ledger's entries share it)."""
        key = (kind, state, fields, applied)
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes.setdefault(key, _Shape(*key))
        return shape

    def _move(self, seq: int, state: str, data: dict | None = None) -> None:
        """Txn ``seq`` has a ``state`` record (``data``: the applied
        record's). A record never lowers a txn's state; a later applied
        record's data replaces an earlier one's."""
        entry = self._txns.get(seq)
        if entry is None:  # no intent, as after a snapshot dropped it
            entry = (self._shape(None, "open", (), ()), seq)
        shape = entry[0]
        # the move: a bare state, or an applied record's field names
        how = state if data is None else tuple(data)
        to = shape.moves.get(how)
        if to is None:
            if _RANK[state] < _RANK[shape.state] or (state == shape.state and data is None):
                to = shape  # nothing to change
            else:
                applied = shape.applied if data is None else how
                to = self._shape(shape.kind, state, shape.fields, applied)
            shape.moves[how] = to
        if to is shape and data is None:
            return
        # one dict store: lock-free like the lookup index
        if data is None:
            self._txns[seq] = (to,) + entry[1:]
        else:
            self._txns[seq] = (to,) + entry[1 : shape.split] + tuple(data.values())
            if shape.state != "applied":
                self._applied_order.append(entry[1])

    def _index(self, record: dict) -> None:
        kind = record["t"]
        if kind == "intent":
            seq = record["seq"]
            txn_kind, data = record["kind"], record["data"]
            entry = self._txns.get(seq)
            if entry is None:
                state, applied, tail = "open", (), ()
            else:  # a later record came first: keep what it said
                old = entry[0]
                state, applied = old.state, old.applied
                seq, tail = entry[1], entry[old.split :]
            fields = tuple(data)
            shape = self._shapes.get((txn_kind, state, fields, applied))
            if shape is None:
                shape = self._shape(txn_kind, state, fields, applied)
            self._txns[seq] = (shape, seq, *data.values(), *tail)
            # the counter only rises, so a seq below it (every seq begin
            # handed out) needs no lock; a replayed one may
            if seq >= self._next_seq:
                with self._count_lock:
                    self._next_seq = max(self._next_seq, seq + 1)
            # the lookup index, lock-free like the ledger above: each
            # update is one dict or list operation
            field = _LOOKUP_KEY.get(txn_kind)
            if field is not None:
                key = data.get(field)
                try:
                    first = self._first_by_key[txn_kind].setdefault(key, seq)
                    if first != seq:
                        self._later_by_key[txn_kind].setdefault(
                            key, []
                        ).append(seq)
                except TypeError:
                    pass  # unhashable key value: only the scan matches it
        elif kind == "seal":
            self._move(record["seq"], "sealed")
        elif kind == "applied":
            self._move(record["seq"], "applied", record.get("data", {}))
        elif kind == "abort":
            self._move(record["seq"], "aborted")
        elif kind == "release":
            device = record["device"]
            if record["pos_end"] > self._frontiers.get(device, 0):
                self._frontiers[device] = record["pos_end"]
        elif kind == "read":
            self._reads.setdefault(record["device"], bytearray()).extend(
                record["data"]
            )

    # -- appending ---------------------------------------------------------
    @staticmethod
    def _frame(record: dict) -> bytes:
        try:
            body = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise JournalError(
                f"unpicklable journal record {record.get('t')!r}: {exc}"
            ) from exc
        return frame(body)

    def _check_poisoned(self) -> None:
        if self.poisoned:
            raise JournalCrash(
                "journal poisoned by a torn write; the owning process is "
                "dead — reopen from storage"
            )

    def _append(self, record: dict) -> None:
        self._check_poisoned()
        self._write(self._frame(record), record)

    def _write(self, blob: bytes, record: dict | None = None) -> None:
        """Queue ``blob`` in this thread's open group — or, outside one,
        write it now as the group of one. ``record`` is what the bytes
        index as once durable (None for an injected torn half)."""
        frames = self._local.frames
        if frames is None:
            self._flush(((blob, record),))
        else:
            frames.append((blob, record))

    def _flush(self, frames) -> None:
        """The one append path: ``frames`` reach storage as a single
        append, and only when it has returned does the ledger (and so
        any reader, or any ack built on it) learn of their records."""
        if not frames:
            return
        self.storage.append(
            frames[0][0] if len(frames) == 1 else b"".join([blob for blob, _ in frames])
        )
        indexed = 0
        for _, record in frames:
            if record is not None:
                self._index(record)
                indexed += 1
        with self._count_lock:
            self._since_snapshot += indexed

    @contextmanager
    def group(self):
        """Make what this thread appends inside the scope one durable
        append: the frames are queued in order and flushed together when
        the scope closes — also when it closes on an exception (an
        injected :class:`~repro.errors.JournalCrash` leaves exactly the
        bytes the separate appends would have). For consecutive phases
        of *one* txn; other threads' appends never land between them.
        Nests: the outermost scope flushes.
        """
        local = self._local
        if local.frames is not None:
            yield
            return
        local.frames = []
        try:
            yield
        finally:
            frames, local.frames = local.frames, None
            self._flush(frames)

    def _queued(self, seq: int, t: str) -> dict | None:
        """Txn ``seq``'s ``t`` record waiting in this thread's open group."""
        for _, record in self._local.frames or ():
            if record is not None and record["t"] == t and record.get("seq") == seq:
                return record
        return None

    def _has(self, seq: int, t: str) -> bool:
        """Whether txn ``seq`` has its ``t`` record: in the ledger, or
        queued by this thread — the protocol's own next step builds on a
        phase its group has not flushed yet; no reader sees it."""
        entry = self._txns.get(seq)
        if entry is not None and (
            entry[0].kind is not None if t == "intent" else entry[0].state in _HAS[t]
        ):
            return True
        return bool(self._local.frames) and self._queued(seq, t) is not None

    # -- the transaction protocol ------------------------------------------
    def begin(self, kind: str, **data: Any) -> int:
        """Write an intent record; returns the transaction seq.

        The intent must carry everything needed to *redo* the apply phase
        (recovery has only the journal and the devices). May raise
        :class:`~repro.errors.JournalCrash` (injected torn record) or arm
        a later-stage fault for this seq.
        """
        self._check_poisoned()
        with self._count_lock:
            seq = self._next_seq
            self._next_seq += 1
        record = {"t": "intent", "seq": seq, "kind": kind, "data": data}
        fault = None
        if self.fault_plan is not None:
            fault = self.fault_plan.decide(JOURNAL_SITE, seq).kind
        if fault is FaultKind.TORN_RECORD:
            blob = self._frame(record)
            self._write(blob[: max(1, len(blob) // 2)])
            self.poisoned = True
            self.fault_plan.note_injection(
                JOURNAL_SITE, fault, detail=f"torn intent (txn {seq})",
                track="journal", txn=seq, txn_kind=kind,
            )
            raise JournalCrash(
                f"injected torn intent record (txn {seq}, kind {kind!r})",
                kind=fault, seq=seq,
            )
        self._append(record)
        if fault in _ARMED_KINDS:
            self._armed[seq] = fault
        if self.obs is not None:
            self._txn_c.inc(kind=kind, phase="intent")
            sid = self.obs.tracer.begin(
                f"txn:{kind}", cat="journal", track="journal",
                seq=seq, txn_kind=kind,
            )
            if sid >= 0:
                self._txn_spans[seq] = sid
        return seq

    def seal(self, seq: int) -> None:
        """Write the seal record — the durable commit point of ``seq``."""
        self._check_open(seq, "seal")
        if self._armed.get(seq) is FaultKind.CRASH_BEFORE_SEAL:
            self._armed.pop(seq)
            self._note_crash(seq, FaultKind.CRASH_BEFORE_SEAL)
            raise JournalCrash(
                f"injected crash before seal (txn {seq})",
                kind=FaultKind.CRASH_BEFORE_SEAL, seq=seq,
            )
        self._append({"t": "seal", "seq": seq})
        if self.obs is not None:
            self._txn_c.inc(kind=self._txn_kind(seq), phase="seal")
        if self._armed.get(seq) is FaultKind.CRASH_AFTER_SEAL:
            self._armed.pop(seq)
            self._note_crash(seq, FaultKind.CRASH_AFTER_SEAL)
            raise JournalCrash(
                f"injected crash after seal, before apply (txn {seq})",
                kind=FaultKind.CRASH_AFTER_SEAL, seq=seq,
            )

    def mark_applied(self, seq: int, **data: Any) -> None:
        """Record that ``seq``'s apply phase completed. Idempotent."""
        if self._has(seq, "applied"):
            return
        if not self._has(seq, "seal"):
            raise JournalError(f"cannot apply unsealed txn {seq}")
        try:
            self._append({"t": "applied", "seq": seq, "data": data})
        except JournalError:
            # unpicklable apply data: record completion without it
            self._append({"t": "applied", "seq": seq, "data": {}})
        if self.obs is not None:
            self._txn_c.inc(kind=self._txn_kind(seq), phase="applied")
            self.obs.tracer.end(
                self._txn_spans.pop(seq, -1), disposition="committed"
            )

    def abort(self, seq: int, reason: str = "") -> None:
        """Roll ``seq`` back. Idempotent; a sealed txn cannot be aborted."""
        if self._has(seq, "abort"):
            return
        if self._has(seq, "seal"):
            raise JournalError(f"cannot abort sealed txn {seq}")
        if not self._has(seq, "intent"):
            raise JournalError(f"cannot abort unknown txn {seq}")
        self._append({"t": "abort", "seq": seq, "reason": reason})
        if self.obs is not None:
            self._txn_c.inc(kind=self._txn_kind(seq), phase="abort")
            self.obs.tracer.end(
                self._txn_spans.pop(seq, -1),
                disposition="aborted", reason=reason,
            )

    def _txn_kind(self, seq: int) -> str:
        entry = self._txns.get(seq)
        if entry is not None and entry[0].kind is not None:
            return entry[0].kind
        intent = self._queued(seq, "intent")
        return intent["kind"] if intent else "?"

    def _note_crash(self, seq: int, fault: FaultKind) -> None:
        if self.fault_plan is not None:
            self.fault_plan.note_injection(
                JOURNAL_SITE, fault, detail=f"txn {seq}",
                track="journal", txn=seq, txn_kind=self._txn_kind(seq),
            )

    def _check_open(self, seq: int, verb: str) -> None:
        if not self._has(seq, "intent"):
            raise JournalError(f"cannot {verb} unknown txn {seq}")
        if self._has(seq, "seal"):
            raise JournalError(f"cannot {verb} already-sealed txn {seq}")
        if self._has(seq, "abort"):
            raise JournalError(f"cannot {verb} aborted txn {seq}")

    # -- source effects ----------------------------------------------------
    def release(
        self, seq: int | None, device: str, eid: int, pos_start: int, pos_end: int
    ) -> None:
        """One source effect reached the inner device (advance frontier).

        ``seq`` is the owning release transaction, or None for a direct
        (non-speculative) write that needs no txn of its own.
        """
        self._append({
            "t": "release", "seq": seq, "device": device,
            "eid": eid, "pos_start": pos_start, "pos_end": pos_end,
        })

    def note_read(self, device: str, data: bytes) -> None:
        """Fresh bytes were consumed from a real source: make them durable."""
        if data:
            self._append({"t": "read", "device": device, "data": bytes(data)})

    def release_frontier(self, device: str) -> int:
        """Max released stream position for ``device`` (the dedup line)."""
        return self._frontiers.get(device, 0)

    def reads_for(self, device: str) -> bytes:
        """Every byte ever consumed from ``device``, in consumption order."""
        return bytes(self._reads.get(device, b""))

    # -- fault arming ------------------------------------------------------
    def take_armed(self, seq: int) -> FaultKind | None:
        """Pop the armed later-stage fault for ``seq`` (gate release loop)."""
        return self._armed.pop(seq, None)

    # -- snapshots & compaction --------------------------------------------
    def _snapshot_state(self) -> dict:
        txns = self._txns
        entries = list(txns.values())
        return {
            "snap_index": self._snap_index,
            "next_seq": self._next_seq,
            "frontiers": dict(self._frontiers),
            "reads": {d: bytes(b) for d, b in self._reads.items()},
            # aborted txns keep their seq (status stays answerable) but
            # drop their intent payload — recovery never redoes them.
            "intents": {
                e[1]: _intent_of(e) for e in entries
                if e[0].kind is not None and e[0].state != "aborted"
            },
            "sealed": sorted(e[1] for e in entries if e[0].state in _HAS["seal"]),
            "applied": {seq: _applied_of(txns[seq]) for seq in self._applied_order[:]},
            "aborted": sorted(e[1] for e in entries if e[0].state == "aborted"),
        }

    def snapshot(self) -> int:
        """Checkpoint the whole ledger as one CRC-framed snapshot record.

        The snapshot carries the applied frontier, release positions,
        journalled reads, and every live intent — everything ``_open``
        would have rebuilt by replaying the records before it — so a
        reopen loads the snapshot and replays only the suffix. Returns
        the snapshot index. May raise :class:`~repro.errors.JournalCrash`
        (injected ``TORN_SNAPSHOT``: half the frame reaches storage; the
        next open quarantines the torn snapshot and falls back to full
        replay).
        """
        self._check_poisoned()
        self._snap_index += 1
        state = self._snapshot_state()
        blob = frame(
            pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL), SNAP_MAGIC
        )
        fault = None
        if self.fault_plan is not None:
            fault = self.fault_plan.decide(SNAPSHOT_SITE, self._snap_index).kind
        if fault is FaultKind.TORN_SNAPSHOT:
            cut = len(SNAP_MAGIC) + max(1, (len(blob) - len(SNAP_MAGIC)) // 2)
            self.storage.append(blob[:cut])
            self.poisoned = True
            self.fault_plan.note_injection(
                SNAPSHOT_SITE, fault,
                detail=f"torn snapshot {self._snap_index}", track="journal",
                snapshot=self._snap_index,
            )
            raise JournalCrash(
                f"injected torn snapshot (snapshot {self._snap_index})",
                kind=fault,
            )
        self.storage.append(blob)
        self._last_snapshot_frame = blob
        self._since_snapshot = 0
        if self._snap_c is not None:
            self._snap_c.inc()
        if self.obs is not None:
            self.obs.tracer.instant(
                "journal.snapshot", cat="journal", track="journal",
                snapshot=self._snap_index, bytes=len(blob),
            )
        return self._snap_index

    def compact(self) -> dict:
        """Truncate the WAL to ``magic + fresh snapshot``.

        Takes a snapshot (durably appended first — a crash between the
        append and the rewrite loses nothing, the next open just loads
        the snapshot from the old image), then atomically replaces the
        whole journal with ``MAGIC + snapshot``. The exactly-once ledger
        (frontiers, applied values, reads) rides the snapshot, so
        recovery semantics are unchanged; only replay length shrinks.
        Returns compaction stats (``records_dropped``: the records the
        file held after its previous snapshot). May raise
        :class:`~repro.errors.JournalCrash` (``TORN_SNAPSHOT`` from the
        embedded snapshot, or ``COMPACTION_CRASH`` after the snapshot is
        durable but before the rewrite).
        """
        replace = getattr(self.storage, "replace", None)
        if replace is None:
            raise JournalError(
                "journal storage does not support compaction (no replace())"
            )
        before = len(self.storage)
        dropped = self._since_snapshot
        snap_index = self.snapshot()
        if self.fault_plan is not None:
            fault = self.fault_plan.decide(SNAPSHOT_SITE, snap_index).kind
            if fault is FaultKind.COMPACTION_CRASH:
                self.fault_plan.note_injection(
                    SNAPSHOT_SITE, fault,
                    detail=f"crash mid-compaction (snapshot {snap_index})",
                    track="journal", snapshot=snap_index,
                )
                raise JournalCrash(
                    f"injected crash mid-compaction (snapshot {snap_index})",
                    kind=fault,
                )
        replace(MAGIC + self._last_snapshot_frame)
        if self._compact_c is not None:
            self._compact_c.inc()
        stats = {
            "snap_index": snap_index,
            "before_bytes": before,
            "after_bytes": len(self.storage),
            "records_dropped": dropped,
        }
        if self.obs is not None:
            self.obs.tracer.instant(
                "journal.compact", cat="journal", track="journal", **stats
            )
        return stats

    def records_since_snapshot(self) -> int:
        """Records appended after the latest snapshot — the replay bound."""
        return self._since_snapshot

    # -- introspection -----------------------------------------------------
    def records(self) -> list[dict]:
        """What a reopen of the storage would replay, decoded on demand:
        the records after the latest loadable snapshot, up to the first
        torn frame — new dicts, none of them held by the ledger. Reads
        the storage and changes nothing: a live file is never truncated
        or quarantined from here."""
        out: list[dict] = []
        for what, item in _scan(self.storage.load()):
            if what == "record":
                out.append(_lean(item))
            elif what == "snapshot":
                out.clear()
        return out

    def intent(self, seq: int) -> dict:
        entry = self._txns.get(seq)
        if entry is None or entry[0].kind is None:
            raise JournalError(f"no txn {seq}")
        return _intent_of(entry)

    def status(self, seq: int) -> str:
        """``open`` / ``sealed`` / ``applied`` / ``aborted``."""
        entry = self._txns.get(seq)
        if entry is None:
            raise JournalError(f"no txn {seq}")
        return entry[0].state

    def _entries(self, states, kind: str | None = None) -> list[tuple]:
        """The ledger entries in one of ``states`` (and of ``kind``, when
        given), ascending seq."""
        found = [
            entry for entry in list(self._txns.values())
            if entry[0].state in states and (kind is None or entry[0].kind == kind)
        ]
        found.sort(key=_SEQ)
        return found

    def unsealed_txns(self) -> list[int]:
        """Intents with neither seal nor abort — recovery rolls these back."""
        return [entry[1] for entry in self._entries(("open",))]

    def sealed_unapplied(self) -> list[int]:
        """Sealed intents not yet applied — recovery rolls these forward."""
        return [entry[1] for entry in self._entries(("sealed",))]

    def _matches(self, entry: tuple, kind: str, match: dict) -> bool:
        shape = entry[0]
        if shape.kind != kind:
            return False
        fields = shape.fields
        for name, want in match.items():
            # a field the intent lacks reads as None, as data.get(name) did
            got = entry[2 + fields.index(name)] if name in fields else None
            if not got == want:
                return False
        return True

    def _find(self, states, kind: str, match: dict) -> tuple | None:
        """The entry of the highest seq in one of ``states`` whose intent
        is of ``kind`` and whose data matches ``match``.

        A keyed kind (:data:`_LOOKUP_KEY`) whose key field ``match``
        names costs one index lookup; anything else scans the ledger.
        Either way the candidates pass the same filter, latest first.
        """
        field = _LOOKUP_KEY.get(kind)
        if field in match:
            key = match[field]
            try:
                first = self._first_by_key[kind].get(key)
            except TypeError:
                pass  # unhashable key value: never indexed, so scan
            else:
                if first is None:
                    return None
                txns = self._txns
                for seq in sorted((first, *self._later_by_key[kind].get(key, ())), reverse=True):
                    entry = txns[seq]
                    if entry[0].state in states and self._matches(entry, kind, match):
                        return entry
                return None
        for entry in reversed(self._entries(states, kind)):
            if self._matches(entry, kind, match):
                return entry
        return None

    def find_sealed(self, kind: str, **match: Any) -> dict | None:
        """Latest sealed intent of ``kind`` whose data matches; or None.

        "Sealed" includes applied: a settled txn keeps its seal.
        """
        entry = self._find(_HAS["seal"], kind, match)
        return None if entry is None else _intent_of(entry)

    def find_applied(self, kind: str, **match: Any) -> tuple[dict, dict] | None:
        """Latest applied ``(intent, applied_data)`` of ``kind``; or None."""
        entry = self._find(_HAS["applied"], kind, match)
        return None if entry is None else (_intent_of(entry), _applied_of(entry))

    def applied_intents(self, kind: str) -> list[tuple[dict, dict]]:
        """Every applied txn of ``kind`` as ``(intent, applied_data)``,
        ascending seq.

        Unlike scanning :meth:`records`, this survives compaction —
        applied intents ride the snapshot — so cross-journal audits and
        restart replay must use it.
        """
        return [
            (_intent_of(entry), _applied_of(entry))
            for entry in self._entries(_HAS["applied"], kind)
        ]

    def sealed_unapplied_intents(self, kind: str) -> list[dict]:
        """Sealed-but-unapplied intents of ``kind``, ascending seq.

        These are the txns a cold restart must finish: for ``admit``
        txns, re-admit the request under its original seq.
        """
        return [_intent_of(entry) for entry in self._entries(("sealed",), kind)]


# -- backend helpers -------------------------------------------------------
def record_block_win(journal: CommitJournal, block_id: int, attempt: int, winner) -> int:
    """Journal a real-backend block win as one intent/seal/applied txn
    — nothing happens between its phases, so one durable append.

    Called by the fork/thread/sequential backends at the moment a winner
    is accepted; the applied record carries the winner's value (when
    picklable) so a supervisor restarted over the same journal can
    replay the outcome instead of re-running the block.
    """
    with journal.group():
        seq = journal.begin(
            "block", block=block_id, attempt=attempt,
            winner_index=winner.index, winner_name=winner.name,
        )
        journal.seal(seq)
        journal.mark_applied(seq, value=winner.value)
    return seq


def find_block_win(journal: CommitJournal, block_id: int) -> dict | None:
    """The replayable win for ``block_id``, or None.

    Returns ``{"winner_index", "winner_name", "value"}`` only when the
    applied record carries the value (an unpicklable value is recorded
    without it, and such a block must simply re-run).
    """
    hit = journal.find_applied("block", block=block_id)
    if hit is None:
        return None
    intent, applied = hit
    if "value" not in applied:
        return None
    return {
        "winner_index": intent["data"]["winner_index"],
        "winner_name": intent["data"]["winner_name"],
        "value": applied["value"],
    }


def replay_block_win(journal: CommitJournal, block_id: int) -> BlockOutcome | None:
    """The outcome of ``block_id`` replayed from its journalled win, or
    None when the journal holds no replayable win and the block must run.

    The one place the policy "a journalled win is replayed, never
    re-run" is spelled: the winner comes back with its durable value,
    nothing executes (``elapsed_s`` is 0), and the outcome is marked
    ``extras["journal_recovered"]`` so no layer above mistakes it for a
    fresh run.
    """
    win = find_block_win(journal, block_id)
    if win is None:
        return None
    outcome = BlockOutcome(
        winner=AlternativeResult(
            index=win["winner_index"], name=win["winner_name"],
            value=win["value"], succeeded=True,
        ),
        elapsed_s=0.0,
    )
    outcome.extras["journal_recovered"] = True
    return outcome


#: ``admit`` settle statuses that close a ledger line because another
#: journal (or incarnation) carries the request's answer.
_HANDED_OFF = frozenset({"stolen", "superseded", "recovered", "recovered-remote"})


class RequestFate(NamedTuple):
    """What a set of shard journals say became of one request seq
    (nothing set: the journals never heard of it)."""

    #: ``(shard id, outcome)`` from the journal holding its applied
    #: ``block`` win — the answer to "replay, or run it again?"
    won: tuple[int, BlockOutcome] | None = None
    #: shard ids whose ``admit`` for it is sealed and unsettled: where a
    #: cold restart re-admits it from.
    sealed: tuple[int, ...] = ()
    #: the final status an ``admit`` settled with (hand-offs aside).
    settled: str | None = None


def request_fate(journals: Mapping[int, CommitJournal], seq: int) -> RequestFate:
    """Ask every journal in ``journals`` (by shard id) about request
    ``seq``: :func:`replay_block_win`'s question, across journals, plus
    where its admit stands. The journals must be final (their writers
    joined, fenced or dead) for the answer to be."""
    won, sealed, settled = None, [], None
    for sid, journal in journals.items():
        if won is None:
            outcome = replay_block_win(journal, seq)
            if outcome is not None:
                won = (sid, outcome)
        admit = journal.find_sealed("admit", request=seq)  # its latest here
        if admit is None:
            continue
        if journal.status(admit["seq"]) == "sealed":
            sealed.append(sid)
        else:
            status = journal.find_applied("admit", request=seq)[1].get("status")
            if status not in _HANDED_OFF:
                settled = status or settled
    return RequestFate(won, tuple(sealed), settled)
