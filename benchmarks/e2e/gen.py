"""Seeded inputs for ``mw-e2e`` and the alternative bodies they drive.

One *op* is one block of three mutually exclusive alternatives. Everything
the program under test receives comes from :func:`generate`: the position
of the op's best alternative, its tenant, and the order of the ops. The
costs ride in the block's ``initial`` workspace, so an alternative's *name*
says nothing about how long it runs — and the names are unique per op, so
the adaptive policy has no history to rank by, cannot grow "confident" in
a favourite, and K is set by the budget grant alone. (With three stable
names the policy's win EWMA crosses ``confident_win`` under contention
within seconds on about half the seeds and the service flips to K=1 for
the rest of the run; the two regimes differ by ~15 % in throughput, which
would make every saturated figure bimodal.)

The bodies are module-level functions because ``cluster_remote`` pickles
them to the shard-host processes. Each stamps its own start and end on
``time.monotonic()`` (``CLOCK_MONOTONIC`` is system-wide on Linux, so the
stamps of a forked world or a shard host compare with the caller's) and
returns ``(name, op_index)`` for the value check.
"""

from __future__ import annotations

import itertools
import pickle
import random
import time
from dataclasses import dataclass
from typing import Iterator

from repro import Alternative
from repro.cluster import HashRing

N_ALTS = 3
BEST_MS = 4.0
SLOW_MS = 20.0
#: block_fork: the best alternative computes, the losers sleep until killed.
KERNEL_MS = 2.0
FORK_LOSER_MS = 50.0
KERNEL_ROUNDS = 16_000
PAGES = 64
PAGE_BYTES = 4096

#: No position is best more than this many ops in a row. At K=3 the best
#: alternative always wins, so a long run of one position is a long run of
#: wins for whatever ranks first; the cap keeps seeds alike.
MAX_RUN = 4

TENANTS = {"block_fork": 1, "serve_paced": 8, "serve_sat": 8, "cluster_remote": 16}
CLUSTER_SHARDS = 2


@dataclass(frozen=True)
class Op:
    """One generated operation: a three-alternative block for one tenant."""

    index: int
    tenant: str
    best: int
    costs_ms: tuple[float, ...]
    kernel: bool = False

    def name(self, pos: int) -> str:
        return f"op{self.index}.{pos}"

    @property
    def names(self) -> list[str]:
        return [self.name(pos) for pos in range(N_ALTS)]

    @property
    def initial(self) -> dict:
        return {
            "op": self.index,
            "costs_ms": self.costs_ms,
            "kernel_at": self.best if self.kernel else -1,
        }

    def alternatives(self) -> list[Alternative]:
        return [Alternative(fn, name=self.name(pos)) for pos, fn in enumerate(BODIES)]

    @property
    def tau_best_ms(self) -> float:
        return self.costs_ms[self.best]

    @property
    def tau_mean_ms(self) -> float:
        """``τ(C_mean)``: what picking an alternative at random would cost."""
        return sum(self.costs_ms) / len(self.costs_ms)


def _tenants(workload: str, rng: random.Random) -> list[str]:
    n = TENANTS[workload]
    if workload != "cluster_remote":
        return [f"t{rng.getrandbits(32):08x}" for _ in range(n)]
    # Names decide ring placement. Draw until each shard is home to the same
    # number of tenants, so seeds differ in names and order, not in how
    # lopsided the two hosts' load is.
    ring = HashRing(range(CLUSTER_SHARDS))
    homes: dict[int, list[str]] = {sid: [] for sid in range(CLUSTER_SHARDS)}
    share = n // CLUSTER_SHARDS
    while any(len(names) < share for names in homes.values()):
        name = f"t{rng.getrandbits(32):08x}"
        home = homes[ring.route(name)]
        if len(home) < share:
            home.append(name)
    out = [name for names in homes.values() for name in names]
    rng.shuffle(out)
    return out


def generate(workload: str, seed: int) -> Iterator[Op]:
    """The endless op stream of ``workload`` under ``seed``."""
    rng = random.Random(f"mw-e2e:{workload}:{seed}")
    tenants = _tenants(workload, rng)
    kernel = workload == "block_fork"
    best_ms, slow_ms = (KERNEL_MS, FORK_LOSER_MS) if kernel else (BEST_MS, SLOW_MS)
    last, run = -1, 0
    for index in itertools.count():
        best = rng.randrange(N_ALTS)
        if best == last and run >= MAX_RUN:
            best = (best + 1 + rng.randrange(N_ALTS - 1)) % N_ALTS
        run = run + 1 if best == last else 1
        last = best
        costs = tuple(best_ms if pos == best else slow_ms for pos in range(N_ALTS))
        yield Op(index, rng.choice(tenants), best, costs, kernel)


def input_bytes(ops: list[Op]) -> bytes:
    """Everything the program receives for ``ops``, as bytes (for the
    determinism check: one seed, one byte string)."""
    return pickle.dumps(
        [(op.tenant, op.names, op.initial) for op in ops], protocol=4
    )


# -- the alternative bodies --------------------------------------------------
def _kernel(ws: dict) -> None:
    """A fixed amount of CPU work, then 64 dirty 4 KiB pages in the workspace."""
    acc = ws["op"]
    for i in range(KERNEL_ROUNDS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    ws["acc"] = acc
    ws["pages"] = [bytes([(acc + p) & 0xFF]) * PAGE_BYTES for p in range(PAGES)]


def _body(ws: dict, pos: int):
    t0 = time.monotonic()
    if pos == ws["kernel_at"]:
        _kernel(ws)
    else:
        time.sleep(ws["costs_ms"][pos] / 1000.0)
    ws["t0"] = t0
    ws["t1"] = time.monotonic()
    return (f"op{ws['op']}.{pos}", ws["op"])


def alt0(ws: dict):
    return _body(ws, 0)


def alt1(ws: dict):
    return _body(ws, 1)


def alt2(ws: dict):
    return _body(ws, 2)


BODIES = (alt0, alt1, alt2)


def noop(ws: dict):
    """The body of the isolated no-op block."""
    return None
