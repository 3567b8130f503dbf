"""The network model's fault sites, kinds and errors.

:class:`NetFaultPlan` is a :class:`~repro.faults.plan.FaultPlan` that
also decides three sites of the simulated 1989 network, so one seeded
plan can drive a link and the library's own sites together:

========== ==================================================================
site       fault kinds
========== ==================================================================
link       XFER_DROP, XFER_DUP, XFER_REORDER, XFER_CORRUPT, LINK_SLOW —
           keyed ``(link_id, transfer_seq, attempt)``
partition  LINK_FLAP (the link is down for the first ``flap_s`` seconds
           of the window) — keyed ``(link_id, window_index)`` where the
           window index is ``floor(link_clock / partition_window_s)``
remote     REMOTE_CRASH (the remote node dies partway through the shipped
           work) — keyed ``(node_id, attempt)``
========== ==================================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import NetworkError, ReproError, TransferError
from repro.faults.plan import FaultPlan

LINK_SITE = "link"
PARTITION_SITE = "partition"
REMOTE_SITE = "remote"


class NetFaultKind(str, enum.Enum):
    """One injectable failure of the simulated network."""

    #: the payload is lost; the sender times out
    XFER_DROP = "transfer-drop"
    #: the payload is delivered twice (at-least-once wire)
    XFER_DUP = "transfer-duplicate"
    #: this delivery arrives after the next one
    XFER_REORDER = "transfer-reorder"
    #: one payload byte is flipped in flight
    XFER_CORRUPT = "transfer-corrupt"
    #: the transfer takes ``slow_factor``× nominal time
    LINK_SLOW = "link-slow"
    #: a flap window — the link is down for ``flap_s`` seconds at the
    #: start of the decided window
    LINK_FLAP = "link-flap"
    #: the remote node crashes after ``remote_crash_fraction`` of the work
    REMOTE_CRASH = "remote-crash"


@dataclass(repr=False)
class NetFaultPlan(FaultPlan):
    """A fault plan that also decides the ``link``, ``partition`` and
    ``remote`` sites."""

    slow_factor: float = 4.0
    partition_window_s: float = 1.0
    flap_s: float = 0.25
    remote_crash_fraction: float = 0.5

    site_kinds = {
        **FaultPlan.site_kinds,
        LINK_SITE: (
            NetFaultKind.XFER_DROP,
            NetFaultKind.XFER_DUP,
            NetFaultKind.XFER_REORDER,
            NetFaultKind.XFER_CORRUPT,
            NetFaultKind.LINK_SLOW,
        ),
        PARTITION_SITE: (NetFaultKind.LINK_FLAP,),
        REMOTE_SITE: (NetFaultKind.REMOTE_CRASH,),
    }
    magnitudes = {
        **FaultPlan.magnitudes,
        NetFaultKind.LINK_SLOW: "slow_factor",
        NetFaultKind.LINK_FLAP: "flap_s",
        NetFaultKind.REMOTE_CRASH: "remote_crash_fraction",
    }

    def link_down(self, link_id: int, at_s: float) -> bool:
        """Whether ``link_id`` is inside a flap window at link time ``at_s``.

        Time is carved into ``partition_window_s`` buckets; a window where
        LINK_FLAP fires takes the link down for its first ``flap_s``
        seconds. Pure in ``(seed, link_id, window_index)``, so both ends
        of a link — and both runs of a test — agree on the outage
        schedule.
        """
        if self.rates.get(NetFaultKind.LINK_FLAP, 0.0) <= 0.0:
            return False
        window = int(at_s / self.partition_window_s)
        if not self.decide(PARTITION_SITE, link_id, window):
            return False
        return (at_s - window * self.partition_window_s) < self.flap_s

    @classmethod
    def lossy(cls, seed: int = 0, rate: float = 0.3, **knobs) -> "NetFaultPlan":
        """A plan that only drops transfers (the common network bench case)."""
        return cls(seed=seed, rates={NetFaultKind.XFER_DROP: rate}, **knobs)


class CheckpointError(ReproError):
    """Checkpoint/restart (rfork) failures."""


class TransferDropped(TransferError):
    """The payload was lost in flight; the sender times out waiting."""


class LinkPartitioned(TransferError):
    """The link is inside a deterministic flap/partition window."""


class TransferCorrupted(TransferError):
    """The receiver rejected a payload whose checksum did not match."""


class RemoteNodeDown(NetworkError):
    """The remote node crashed mid-operation (injected or declared)."""
