"""Simulated network links.

A :class:`SimulatedLink` is a latency + bandwidth pipe with optional
per-transfer jitter and a transfer ledger. It computes (and can optionally
really sleep for) the time to ship a byte payload — the substitution for
the 1989 LAN the paper's rfork ran over (see DESIGN.md section 3).

Unreliability is opt-in: hand the link a
:class:`~netmodel.faults.NetFaultPlan` and :meth:`transfer` /
:meth:`ship` start consulting the plan's ``link`` and ``partition``
sites. Every fault decision is a pure function of
``(seed, link_id, transfer_seq, attempt)``, so a seeded link replays the
exact same loss/corruption/flap schedule on every run — the property the
``tests/distrib_faults`` suite pins down.

Two call styles:

- :meth:`transfer` — accounting only (how long did ``nbytes`` take);
  subject to drops, slowdowns and partitions.
- :meth:`ship` — carries a real payload and models the full at-least-once
  wire: the returned :class:`Delivery` may be a corrupted copy, a
  duplicated one (``copies == 2``), or arrive reordered behind the next
  transfer. Consumers are expected to defend themselves with checksums
  and idempotency tokens, not by peeking at the delivery flags.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field

from repro.analysis.calibration import NetworkProfile
from repro.errors import NetworkError
from repro.obs import or_null
from repro.util.rng import ReplayableRNG

from .faults import LINK_SITE, LinkPartitioned, NetFaultKind, TransferDropped


@dataclass(frozen=True)
class TransferRecord:
    """One transfer attempt on a link (successful or faulted)."""

    nbytes: int
    seconds: float
    started_at: float
    seq: int = 0
    attempt: int = 0
    ok: bool = True
    fault: str | None = None


@dataclass(frozen=True)
class LinkFaultEvent:
    """One injected network fault, in the order it fired."""

    seq: int
    kind: str
    at_s: float
    detail: str = ""


@dataclass(frozen=True)
class Delivery:
    """What the far end of a :meth:`SimulatedLink.ship` actually received."""

    seq: int
    payload: bytes
    seconds: float
    copies: int = 1
    corrupted: bool = False
    reordered: bool = False


def corrupt_payload(payload: bytes) -> bytes:
    """Deterministically flip one byte of ``payload`` (XFER_CORRUPT).

    The flipped position derives from the payload's own CRC, so the same
    bytes always corrupt the same way — no RNG stream to coordinate.
    """
    if not payload:
        return payload
    pos = zlib.crc32(payload) % len(payload)
    mutated = bytearray(payload)
    mutated[pos] ^= 0xFF
    return bytes(mutated)


@dataclass
class SimulatedLink:
    """A point-to-point link with latency, bandwidth, jitter and faults.

    ``jitter`` adds a uniform[0, jitter·nominal] penalty per transfer,
    drawn from a seeded RNG for reproducibility. ``real_sleep`` makes
    :meth:`transfer` actually block for the computed duration (for
    end-to-end wall-clock demos); by default the link only accounts.

    ``fault_plan`` + ``link_id`` enable the deterministic fault sites
    (see module docstring). Accounting (``ledger``, ``clock``,
    ``fault_events``) is guarded by a lock so concurrent transfers from
    real threads keep ``bytes_moved`` / ``busy_seconds`` exact.
    """

    profile: NetworkProfile
    jitter: float = 0.0
    real_sleep: bool = False
    seed: int = 0
    clock: float = 0.0
    ledger: list[TransferRecord] = field(default_factory=list)
    fault_plan: "object | None" = None
    link_id: int = 0
    obs: "object | None" = None

    def __post_init__(self) -> None:
        if self.jitter < 0:
            raise NetworkError("jitter must be non-negative")
        self._rng = ReplayableRNG(self.seed)
        self._lock = threading.Lock()
        self._seq = 0
        self.fault_events: list[LinkFaultEvent] = []
        self.arrival_order: list[int] = []
        self._reorder_hold: int | None = None
        self.obs = obs = or_null(self.obs)
        self._xfer_c = obs.registry.counter(
            "mw_net_transfers_total", "Link transfer attempts",
            labelnames=("link", "result"),
        )
        if self.fault_plan is not None:
            obs.watch_fault_plan(self.fault_plan)
        obs.tracer.set_track_name(f"link:{self.link_id}", f"link {self.link_id}")

    def transfer_time(self, nbytes: int) -> float:
        """Nominal (jitter- and fault-free) time to ship ``nbytes``."""
        if nbytes < 0:
            raise NetworkError("cannot transfer a negative payload")
        return self.profile.transfer_time(nbytes)

    # -- internals ---------------------------------------------------------
    def _decide(self, seq: int, attempt: int):
        if self.fault_plan is None:
            from repro.faults.plan import FaultDecision

            return FaultDecision()
        return self.fault_plan.decide(LINK_SITE, self.link_id, seq, attempt)

    def _record_fault(self, seq: int, kind: NetFaultKind, detail: str = "") -> None:
        self.fault_events.append(
            LinkFaultEvent(seq=seq, kind=kind.value, at_s=self.clock, detail=detail)
        )
        if self.fault_plan is not None:
            self.fault_plan.note_injection(
                LINK_SITE, kind, detail=detail, t=self.clock,
                track=f"link:{self.link_id}", link=self.link_id, seq=seq,
            )

    def _xfer_span(
        self, seq: int, attempt: int, nbytes: int, start: float,
        seconds: float, *, disposition: str, fault: str | None = None,
    ) -> None:
        attrs = {"seq": seq, "attempt": attempt, "nbytes": nbytes}
        if fault is not None:
            attrs["fault"] = fault
        self.obs.tracer.complete(
            f"xfer:{seq}", start, start + seconds, cat="net",
            track=f"link:{self.link_id}", disposition=disposition, **attrs,
        )

    def _check_partition(self, seq: int) -> None:
        plan = self.fault_plan
        if plan is not None and plan.link_down(self.link_id, self.clock):
            self._record_fault(seq, NetFaultKind.LINK_FLAP, f"at {self.clock:.6f}s")
            self.ledger.append(
                TransferRecord(
                    nbytes=0, seconds=0.0, started_at=self.clock,
                    seq=seq, ok=False, fault=NetFaultKind.LINK_FLAP.value,
                )
            )
            self._xfer_c.inc(link=self.link_id, result="partitioned")
            raise LinkPartitioned(
                f"link {self.link_id} is partitioned at t={self.clock:.6f}s"
            )

    def _one_transfer(
        self, nbytes: int, attempt: int, payload: bytes | None
    ) -> tuple[int, float, "NetFaultKind | None"]:
        """Account one wire crossing; returns (seq, seconds, payload fault).

        Caller must hold the lock. Raises on drop/partition; payload-level
        kinds (dup/corrupt/reorder) are returned for :meth:`ship` to apply
        and ignored by :meth:`transfer`.
        """
        seq = self._seq
        self._seq += 1
        self._check_partition(seq)
        nominal = self.transfer_time(nbytes)
        seconds = nominal
        if self.jitter > 0:
            seconds += self._rng.uniform(0.0, self.jitter * nominal)
        decision = self._decide(seq, attempt)
        kind = decision.kind
        if kind is NetFaultKind.LINK_SLOW:
            seconds *= decision.param
            self._record_fault(seq, kind, f"x{decision.param:g}")
        if kind is NetFaultKind.XFER_DROP:
            # the sender pays the full send time before concluding the
            # payload is gone (a timeout, not an instant NACK)
            self._record_fault(seq, kind)
            self.ledger.append(
                TransferRecord(
                    nbytes=nbytes, seconds=seconds, started_at=self.clock,
                    seq=seq, attempt=attempt, ok=False, fault=kind.value,
                )
            )
            started = self.clock
            self.clock += seconds
            self._xfer_span(
                seq, attempt, nbytes, started, seconds,
                disposition="aborted", fault=kind.value,
            )
            self._xfer_c.inc(link=self.link_id, result="dropped")
            raise TransferDropped(
                f"transfer seq={seq} ({nbytes} bytes) lost on link {self.link_id}"
            )
        self.ledger.append(
            TransferRecord(
                nbytes=nbytes, seconds=seconds, started_at=self.clock,
                seq=seq, attempt=attempt,
                fault=kind.value if kind is not None else None,
            )
        )
        started = self.clock
        self.clock += seconds
        self._xfer_span(
            seq, attempt, nbytes, started, seconds, disposition="committed",
            fault=kind.value if kind is not None else None,
        )
        self._xfer_c.inc(link=self.link_id, result="ok")
        payload_fault = kind if kind in (
            NetFaultKind.XFER_DUP, NetFaultKind.XFER_CORRUPT, NetFaultKind.XFER_REORDER
        ) else None
        return seq, seconds, payload_fault

    def _note_arrival(self, seq: int, reorder: bool) -> bool:
        """Track arrival order; returns True when this seq was reordered."""
        if reorder and self._reorder_hold is None:
            self._reorder_hold = seq
            return True
        self.arrival_order.append(seq)
        if self._reorder_hold is not None and self._reorder_hold != seq:
            self.arrival_order.append(self._reorder_hold)
            self._reorder_hold = None
        return False

    # -- public API --------------------------------------------------------
    def transfer(self, nbytes: int, attempt: int = 0) -> float:
        """Account (and optionally sleep) one transfer; returns seconds.

        With a fault plan attached this may raise
        :class:`~netmodel.faults.TransferDropped` or
        :class:`~netmodel.faults.LinkPartitioned`; payload-level faults
        (duplicate/corrupt/reorder) need :meth:`ship`.
        """
        with self._lock:
            seq, seconds, _ = self._one_transfer(nbytes, attempt, None)
            self._note_arrival(seq, reorder=False)
        if self.real_sleep:  # pragma: no cover - timing-dependent
            time.sleep(seconds)
        return seconds

    def ship(self, payload: bytes, attempt: int = 0) -> Delivery:
        """Ship a real payload; returns what the far end received.

        Raises like :meth:`transfer`; otherwise the returned
        :class:`Delivery` models the at-least-once wire: ``corrupted``
        payloads differ from what was sent, ``copies == 2`` means the
        receiver saw the same bytes twice (and was charged twice), and
        ``reordered`` deliveries land behind the next transfer in
        :attr:`arrival_order`.
        """
        with self._lock:
            seq, seconds, fault = self._one_transfer(len(payload), attempt, payload)
            delivered = payload
            copies = 1
            if fault is NetFaultKind.XFER_CORRUPT:
                delivered = corrupt_payload(payload)
                self._record_fault(seq, fault)
            elif fault is NetFaultKind.XFER_DUP:
                copies = 2
                self._record_fault(seq, fault)
                # the duplicate crosses the wire too: charge it
                dup_seconds = self.transfer_time(len(payload))
                self.ledger.append(
                    TransferRecord(
                        nbytes=len(payload), seconds=dup_seconds,
                        started_at=self.clock, seq=seq, attempt=attempt,
                        fault=fault.value,
                    )
                )
                self.clock += dup_seconds
                seconds += dup_seconds
            reordered = self._note_arrival(seq, fault is NetFaultKind.XFER_REORDER)
            if reordered:
                self._record_fault(seq, NetFaultKind.XFER_REORDER)
        if self.real_sleep:  # pragma: no cover - timing-dependent
            time.sleep(seconds)
        return Delivery(
            seq=seq, payload=delivered, seconds=seconds, copies=copies,
            corrupted=delivered != payload, reordered=reordered,
        )

    def wait(self, seconds: float) -> float:
        """Advance the link clock without moving bytes (retry backoff).

        Backoff must consume link time: a retry that waited is what walks
        the clock out of a partition window.
        """
        if seconds < 0:
            raise NetworkError("cannot wait a negative duration")
        with self._lock:
            self.clock += seconds
        if self.real_sleep:  # pragma: no cover - timing-dependent
            time.sleep(seconds)
        return seconds

    # -- accounting --------------------------------------------------------
    @property
    def bytes_moved(self) -> int:
        return sum(r.nbytes for r in self.ledger)

    @property
    def busy_seconds(self) -> float:
        return sum(r.seconds for r in self.ledger)

    @property
    def drops(self) -> int:
        return sum(1 for r in self.ledger if r.fault == NetFaultKind.XFER_DROP.value)

    @property
    def faults_injected(self) -> int:
        return len(self.fault_events)
