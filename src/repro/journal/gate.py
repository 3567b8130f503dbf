"""The exactly-once source gate.

A :class:`SourceGate` wraps a non-retryable source device (a
:class:`~repro.devices.teletype.Teletype`, say) and presents it to the
kernel as a *sink*: it implements the full
:class:`~repro.devices.device.SinkDevice` staging protocol, so the
kernel's existing speculative-write machinery routes through it
unchanged. That is Jefferson's buffered-``stdout`` trick (paper § 5)
upgraded with a write-ahead journal:

- **writes by speculative worlds** accumulate in a per-world *effect
  ledger* (``stage_write``); nothing touches the inner device. At commit
  (``commit_world``) the ledger is assigned stream positions and
  released entry-by-entry under a journaled ``release`` transaction —
  intent (carrying the whole ledger, for redo), seal, then one inner
  write + one ``release`` record per entry, then applied.
- **direct writes** (unpredicated worlds) release immediately under a
  bare ``release`` record.
- **exactly-once** is positional: the journal's per-device *release
  frontier* (max released ``pos_end``) survives crashes; any write whose
  positions fall at or below the frontier is already durable on the
  inner device and is skipped, and a partially-covered write is sliced.
  Deterministic re-execution regenerates the same stream, so positions
  — not effect ids, which restart with the process — line up across
  incarnations.
- **reads** are replay-buffered: the first reader past the buffered
  frontier pulls fresh bytes from the inner source and journals them
  (``note_read``); every later reader — including the whole re-run after
  a crash — replays from the buffer, so destructive scripted input is
  consumed exactly once.

Atomicity grain: one ledger entry's (inner write, release record) pair
is a single atomic step. The deterministic fault plane injects crashes
*between* entries (``PARTIAL_RELEASE`` stops the loop halfway), at the
transaction boundaries (torn intent, crash before/after seal), and
never inside the pair — the simulated-crash analogue of a write that
either reached the device or did not.
"""

from __future__ import annotations

from typing import Any

from repro.devices.device import Device, SinkDevice
from repro.errors import InputExhausted, JournalCrash
from repro.faults.plan import JOURNAL_SITE, FaultKind
from repro.journal.wal import CommitJournal


class SourceGate(SinkDevice):
    """A journal-backed, exactly-once façade over a source device.

    Parameters
    ----------
    inner:
        The real source device. Its effects are the only ones that count
        as observable; everything the gate holds is revocable.
    journal:
        The :class:`~repro.journal.wal.CommitJournal` recording releases
        and reads. The gate rebuilds its replay buffer and consults the
        release frontier from it, so constructing a fresh gate over a
        recovered journal resumes exactly where the dead one stopped.
    name:
        Device name the kernel sees; defaults to the inner device's.
    """

    def __init__(self, inner: Device, journal: CommitJournal, name: str | None = None) -> None:
        super().__init__(name or inner.name)
        self.inner = inner
        self.journal = journal
        self._ledger: dict[int, list[tuple[int, bytes]]] = {}  # wid -> [(eid, data)]
        self._read_pos: dict[Any, int] = {}
        self._read_buffer = bytearray(journal.reads_for(self.name))
        self._next_eid = 1
        self._pos = 0  # logical output-stream position of *this* incarnation
        self.released_bytes = 0
        self.skipped_bytes = 0  # deduplicated by the durable frontier
        self.double_commits = 0
        self.real_reads = 0
        self.replayed_reads = 0
        self._committed_worlds: set[int] = set()
        # Absorb the gate's ad-hoc counters as callback gauges. A fresh
        # gate over a recovered journal has the same device name and
        # simply rebinds the shims to itself.
        slug = "".join(c if c.isalnum() else "_" for c in self.name)
        journal.obs.registry.attr_gauges(
            self,
            ("released_bytes", "skipped_bytes", "double_commits",
             "real_reads", "replayed_reads"),
            prefix=f"mw_gate_{slug}",
        )

    @property
    def frontier(self) -> int:
        """The durable release frontier (max released stream position)."""
        return self.journal.release_frontier(self.name)

    # -- reads: journal-buffered replay ------------------------------------
    def read(
        self,
        nbytes: int,
        world: int | None = None,
        client: Any = None,
        offset: int = 0,
        **kwargs: Any,
    ) -> bytes:
        """Read through the durable replay buffer.

        Keyed per world (the kernel passes ``world=`` for sink devices);
        each key tracks its own stream position, and
        :meth:`fork_reader` lets a forked world inherit its parent's.
        """
        key = world if world is not None else (client if client is not None else "default")
        pos = self._read_pos.get(key, 0)
        needed = pos + nbytes - len(self._read_buffer)
        if needed > 0:
            try:
                fresh = self.inner.read(needed)
            except InputExhausted:
                if pos >= len(self._read_buffer):
                    raise
                fresh = b""  # partial tail still available from the buffer
            if fresh:
                self.journal.note_read(self.name, fresh)
                self._read_buffer.extend(fresh)
            self.real_reads += 1
        else:
            self.replayed_reads += 1
        chunk = bytes(self._read_buffer[pos : pos + nbytes])
        self._read_pos[key] = pos + len(chunk)
        return chunk

    def fork_reader(self, src: int, dst: int) -> None:
        """A world forked: the child inherits the parent's read position."""
        if src in self._read_pos:
            self._read_pos[dst] = self._read_pos[src]

    def forget_client(self, key: Any) -> None:
        """Drop an eliminated world's read position and pending ledger."""
        self._read_pos.pop(key, None)
        self._ledger.pop(key, None)

    # -- writes: ledger, release, frontier dedup ---------------------------
    def write(self, data: bytes, **kwargs: Any) -> int:
        """Direct (non-speculative) write: release immediately, journaled."""
        pos_start = self._pos
        pos_end = pos_start + len(data)
        self._pos = pos_end
        if data:
            eid = self._next_eid
            self._next_eid += 1
            self._release_entry(None, eid, pos_start, pos_end, bytes(data))
        return len(data)

    def stage_write(self, world: int, data: bytes, **kwargs: Any) -> int:
        """Buffer a speculative world's source effect in its ledger."""
        eid = self._next_eid
        self._next_eid += 1
        self._ledger.setdefault(world, []).append((eid, bytes(data)))
        return len(data)

    def commit_world(self, world: int) -> None:
        """Release ``world``'s ledger exactly-once under a journal txn.

        Idempotent per wid: a repeat commit finds an empty ledger and is
        a counted no-op. May raise :class:`~repro.errors.JournalCrash`
        at any injected fault point; the intent record carries the full
        ledger so recovery can redo the un-released entries.
        """
        entries = self._ledger.pop(world, None)
        if not entries:
            if world in self._committed_worlds:
                self.double_commits += 1
            self._committed_worlds.add(world)
            return
        staged = []
        pos = self._pos
        for eid, data in entries:
            staged.append((eid, pos, pos + len(data), data))
            pos += len(data)
        seq = self.journal.begin(
            "release", device=self.name, world=world, entries=staged
        )
        self.journal.seal(seq)
        armed = self.journal.take_armed(seq)
        limit = len(staged) // 2 if armed is FaultKind.PARTIAL_RELEASE else None
        for i, (eid, pos_start, pos_end, data) in enumerate(staged):
            if limit is not None and i >= limit:
                if self.journal.fault_plan is not None:
                    self.journal.fault_plan.note_injection(
                        JOURNAL_SITE, armed, detail=f"txn {seq}",
                        track="journal", txn=seq, device=self.name,
                        released=i, staged=len(staged),
                    )
                raise JournalCrash(
                    f"injected partial release: {i} of {len(staged)} effects "
                    f"released (txn {seq})",
                    kind=armed, seq=seq,
                )
            self._release_entry(seq, eid, pos_start, pos_end, data)
        self.journal.mark_applied(seq, released=len(staged))
        self._pos = pos
        self._committed_worlds.add(world)

    def discard_world(self, world: int) -> None:
        """Eliminate ``world``'s ledger — its effects never existed."""
        self._ledger.pop(world, None)

    def transfer_world(self, src: int, dst: int) -> int:
        """Re-key ``src``'s ledger to ``dst`` (commit into a speculative parent).

        The read position travels too: input the winner consumed is part
        of the history the parent resumes from.
        """
        moved = self._ledger.pop(src, [])
        if moved:
            self._ledger.setdefault(dst, []).extend(moved)
        if src in self._read_pos:
            self._read_pos[dst] = max(
                self._read_pos.get(dst, 0), self._read_pos.pop(src)
            )
        return len(moved)

    # -- the atomic step ---------------------------------------------------
    def _release_entry(
        self, seq: int | None, eid: int, pos_start: int, pos_end: int, data: bytes
    ) -> None:
        """Release one effect: inner write + release record, frontier-deduped."""
        frontier = self.journal.release_frontier(self.name)
        if pos_end <= frontier:
            self.skipped_bytes += len(data)
            return  # already durable on the inner device (earlier incarnation)
        fresh = data[max(0, frontier - pos_start):]
        self.inner.write(fresh)
        self.journal.release(seq, self.name, eid, pos_start, pos_end)
        self.released_bytes += len(fresh)

    # -- recovery redo -----------------------------------------------------
    def redo_release(self, seq: int, entries) -> int:
        """Roll a sealed-but-unapplied release txn forward; returns redone count.

        Called by :func:`repro.journal.recovery.recover` with the intent's
        ledger. Entries at or below the frontier were released by the dead
        incarnation and are skipped, so redoing twice is a no-op.
        """
        redone = 0
        for eid, pos_start, pos_end, data in entries:
            if pos_end > self.journal.release_frontier(self.name):
                redone += 1
            self._release_entry(seq, eid, pos_start, pos_end, data)
        return redone

    # -- introspection -----------------------------------------------------
    def pending_effects(self, world: int) -> int:
        return len(self._ledger.get(world, ()))

    def staged_worlds(self) -> list[int]:
        return sorted(self._ledger)
