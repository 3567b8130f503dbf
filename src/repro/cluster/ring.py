"""The consistent-hash ring: tenants → shards, stable under churn.

Routing in the cluster must satisfy three properties the or-parallel
splitting literature (Vieira et al., PAPERS.md) treats as table stakes
for work-distribution policy:

- **determinism across processes** — every router incarnation (and
  every test re-run) must map the same tenant to the same shard, so
  hashing uses BLAKE2b over the tenant string, never Python's
  per-process-salted ``hash()``. It is the builtin ``_blake2`` module's,
  the very function the standard hash front end re-exports, whose
  import would also load OpenSSL into every router and shard host;
- **insertion-order independence** — a ring built ``A,B,C`` and a ring
  built ``C,A,B`` are the same ring (membership is a *set*; the ring
  positions are pure functions of shard id);
- **minimal remapping** — adding a shard to an ``N``-shard ring moves
  only the tenants the new shard now owns (≈ ``1/(N+1)`` of them, with
  ``vnodes`` virtual points smoothing the variance), and removing one
  moves only the dead shard's tenants onto their next-preferred
  survivors. Everything else keeps its home — which is what keeps a
  failover from stampeding the whole cluster's admission queues.

:meth:`HashRing.preference` is the failover order: the distinct shards
encountered walking clockwise from the tenant's point. The first entry
is the home shard; a router re-lands a dead shard's requests on the
next *surviving* entry, so re-placement is deterministic too.
"""

from __future__ import annotations

import bisect

from _blake2 import blake2b

from repro.errors import ClusterError


def _hash64(data: str) -> int:
    """A stable 64-bit point for ``data`` (process-independent)."""
    return int.from_bytes(
        blake2b(data.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """A consistent-hash ring over shard ids with virtual nodes.

    Parameters
    ----------
    shards:
        Initial shard ids (any hashable-as-string ids; the cluster uses
        ints). Order does not matter.
    vnodes:
        Virtual points per shard. More vnodes → smoother balance and
        smaller remap variance, at linear memory cost. 64 keeps the
        max/min tenant-share ratio under ~2 for realistic shard counts.
    """

    def __init__(self, shards=(), vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ClusterError(f"vnodes must be positive, got {vnodes}")
        self.vnodes = vnodes
        self._points: list[tuple[int, object]] = []  # sorted (point, shard)
        self._shards: set = set()
        for shard in shards:
            self.add(shard)

    # -- membership --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard) -> bool:
        return shard in self._shards

    @property
    def shards(self) -> list:
        """Current members, in stable (sorted-by-repr) order."""
        return sorted(self._shards, key=repr)

    def _shard_points(self, shard) -> list[int]:
        return [_hash64(f"shard:{shard}:vnode:{v}") for v in range(self.vnodes)]

    def add(self, shard) -> None:
        """Add ``shard``; remaps only the tenants it now owns."""
        if shard in self._shards:
            raise ClusterError(f"shard {shard!r} is already on the ring")
        self._shards.add(shard)
        for point in self._shard_points(shard):
            bisect.insort(self._points, (point, shard))

    def remove(self, shard) -> None:
        """Drop ``shard``; its tenants fall to their next preference."""
        if shard not in self._shards:
            raise ClusterError(f"shard {shard!r} is not on the ring")
        self._shards.discard(shard)
        self._points = [(p, s) for p, s in self._points if s != shard]

    # -- routing -----------------------------------------------------------
    def route(self, tenant: str):
        """The shard owning ``tenant`` (first point clockwise)."""
        if not self._points:
            raise ClusterError("cannot route on an empty ring")
        idx = bisect.bisect_right(self._points, (_hash64(f"tenant:{tenant}"),))
        if idx == len(self._points):
            idx = 0  # wrap past twelve o'clock
        return self._points[idx][1]

    def preference(self, tenant: str, n: int | None = None) -> list:
        """Distinct shards in clockwise order from ``tenant``'s point.

        ``preference(t)[0] == route(t)``; entry ``i+1`` is where the
        tenant lands if the first ``i+1`` entries are all dead — the
        deterministic failover order.
        """
        if not self._points:
            raise ClusterError("cannot route on an empty ring")
        want = len(self._shards) if n is None else min(n, len(self._shards))
        start = bisect.bisect_right(self._points, (_hash64(f"tenant:{tenant}"),))
        seen: list = []
        for i in range(len(self._points)):
            shard = self._points[(start + i) % len(self._points)][1]
            if shard not in seen:
                seen.append(shard)
                if len(seen) >= want:
                    break
        return seen
