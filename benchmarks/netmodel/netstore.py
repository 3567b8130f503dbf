"""Network-attached single-level store and demand-paged remote state.

Paper section 2.1 buries the network under the page abstraction ("network
file systems can be utilized to hide the network through the page
management abstraction"), and section 3.4 notes the rfork used an NFS to
reduce copying, while "more sophisticated migration schemes, using
'on-demand' state management techniques have been constructed"
(Theimer et al. [23]).

- :class:`NetworkStore` — a :class:`~repro.memory.store.SingleLevelStore`
  reached over a :class:`~netmodel.netsim.SimulatedLink`: every file
  and page operation charges the link.
- :class:`DemandPagedImage` — a checkpoint published as pages on a
  network store; a restart pulls only the pages it actually touches,
  turning the rfork's up-front transfer into per-access latency.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

from repro.distrib.retry import RetryPolicy, call_with_retries
from repro.errors import NetworkError
from repro.memory.store import SingleLevelStore

from .faults import TransferCorrupted
from .netsim import SimulatedLink


class NetworkStore:
    """A remote single-level store: operations pay link transfer time.

    All times are accounted on the link (and returned per call); file
    content lives in the wrapped local store, which stands in for the
    server.

    On an unreliable link (one carrying a fault plan) every operation is
    an at-least-once exchange: payloads are CRC-checked end to end (a
    corrupted delivery is retried, never applied), uploads carry an
    idempotency token so a duplicated or re-sent write lands exactly
    once, and drops/partitions retry under ``retry`` with deterministic
    backoff. ``stats`` accumulates what unreliability actually cost.
    """

    def __init__(
        self,
        store: SingleLevelStore,
        link: SimulatedLink,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.store = store
        self.link = link
        self.retry = retry if retry is not None else RetryPolicy()
        self._applied_tokens: set[str] = set()
        self.stats = {
            "retries": 0,
            "backoff_s": 0.0,
            "corrupt_rejected": 0,
            "duplicates_suppressed": 0,
        }

    @property
    def page_size(self) -> int:
        return self.store.page_size

    # -- the at-least-once exchange -----------------------------------------
    def _exchange(self, payload: bytes, token: str) -> tuple[bytes, float]:
        """Ship ``payload`` with retries; returns (verified bytes, seconds).

        Seconds include every failed attempt, duplicate copy and backoff
        pause — the caller-visible price of the unreliable link.
        """
        expect = zlib.crc32(payload)
        before = self.link.busy_seconds

        def once(attempt: int) -> bytes:
            delivery = self.link.ship(payload, attempt=attempt)
            if delivery.copies > 1:
                self.stats["duplicates_suppressed"] += delivery.copies - 1
            if zlib.crc32(delivery.payload) != expect:
                self.stats["corrupt_rejected"] += 1
                raise TransferCorrupted(
                    f"{token}: delivered payload fails checksum"
                )
            return delivery.payload

        data, stats = call_with_retries(
            once, policy=self.retry, token=token, link=self.link
        )
        self.stats["retries"] += stats.retries
        self.stats["backoff_s"] += stats.backoff_s
        return data, (self.link.busy_seconds - before) + stats.backoff_s

    # -- whole files --------------------------------------------------------
    def write_file(self, name: str, data: bytes) -> float:
        """Upload a file; returns the transfer seconds charged.

        Applies at most once per (name, content): a duplicate delivery or
        a redundant re-send of bytes the server already holds is charged
        on the wire but not re-applied to the store.
        """
        token = f"put:{name}:{zlib.crc32(data):08x}"
        _, seconds = self._exchange(data, token)
        if token in self._applied_tokens:
            self.stats["duplicates_suppressed"] += 1
        else:
            self.store.write_file(name, data)
            self._applied_tokens.add(token)
        return seconds

    def read_file(self, name: str) -> tuple[bytes, float]:
        """Download a whole file; returns (data, seconds)."""
        data = self.store.read_file(name)
        verified, seconds = self._exchange(data, f"get:{name}")
        return verified, seconds

    # -- page-granular access ---------------------------------------------------
    def read_page(self, name: str, page_index: int) -> tuple[bytes, float]:
        """Fetch one page of a file (a demand fault across the network)."""
        stored = self.store.stat(name)
        if not 0 <= page_index < max(stored.pages, 1):
            raise NetworkError(
                f"page {page_index} out of range for {name!r} ({stored.pages} pages)"
            )
        start = page_index * self.page_size
        data = self.store.read_file(name)[start : start + self.page_size]
        verified, seconds = self._exchange(
            data if data else b"\x00", f"page:{name}:{page_index}"
        )
        return data, seconds

    def pages_of(self, name: str) -> int:
        return self.store.stat(name).pages


@dataclass
class DemandPageAccounting:
    """What one demand-paged restart actually moved."""

    pages_total: int
    pages_fetched: int
    transfer_s: float

    @property
    def fetch_fraction(self) -> float:
        if self.pages_total == 0:
            return 0.0
        return self.pages_fetched / self.pages_total


class DemandPagedImage:
    """A checkpoint image published page-wise on a network store.

    ``publish`` uploads once (the checkpointing node pays the full
    transfer); each remote ``reader()`` then pulls pages lazily and
    caches them — the on-demand migration of [23]. Compare
    :meth:`eager_fetch_time` with a reader's accounting to see when lazy
    wins.
    """

    def __init__(self, netstore: NetworkStore, name: str) -> None:
        self.netstore = netstore
        self.name = name

    @classmethod
    def publish(cls, netstore: NetworkStore, name: str, image: bytes) -> tuple["DemandPagedImage", float]:
        seconds = netstore.write_file(name, image)
        return cls(netstore, name), seconds

    @property
    def pages(self) -> int:
        return self.netstore.pages_of(self.name)

    def eager_fetch_time(self) -> float:
        """Nominal cost of shipping the whole image up front."""
        stored = self.netstore.store.stat(self.name)
        return self.netstore.link.transfer_time(stored.length)

    def reader(self) -> "DemandPagedReader":
        return DemandPagedReader(self)


class DemandPagedReader:
    """One remote consumer of a published image, page cache included."""

    def __init__(self, image: DemandPagedImage) -> None:
        self.image = image
        self._cache: dict[int, bytes] = {}
        self.transfer_s = 0.0

    def read(self, offset: int, length: int) -> bytes:
        """Read image bytes, faulting pages over the network as needed."""
        if offset < 0 or length < 0:
            raise NetworkError("bad read range")
        page_size = self.image.netstore.page_size
        first = offset // page_size
        last = (offset + length - 1) // page_size if length else first
        pieces = []
        for index in range(first, last + 1):
            if index not in self._cache:
                data, seconds = self.image.netstore.read_page(self.image.name, index)
                self._cache[index] = data
                self.transfer_s += seconds
            pieces.append(self._cache[index])
        blob = b"".join(pieces)
        start = offset - first * page_size
        return blob[start : start + length]

    def accounting(self) -> DemandPageAccounting:
        return DemandPageAccounting(
            pages_total=self.image.pages,
            pages_fetched=len(self._cache),
            transfer_s=self.transfer_s,
        )


def breakeven_fraction(image_bytes: int, link: SimulatedLink, page_size: int) -> float:
    """Fraction of pages touched at which lazy fetching stops winning.

    Lazy pays one link latency per faulted page; eager pays one latency
    plus the whole image's bandwidth cost. Equating the two gives the
    touch fraction where eager becomes cheaper.
    """
    pages = max(1, math.ceil(image_bytes / page_size))
    eager = link.transfer_time(image_bytes)
    per_page = link.transfer_time(page_size)
    if per_page == 0:
        return 1.0
    return min(1.0, eager / (per_page * pages))
