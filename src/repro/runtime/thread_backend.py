"""Thread-based Multiple Worlds (an approximation, and a useful baseline).

Threads cannot be killed, so elimination is *cooperative*: when a winner
commits, the block sets a shared :class:`CancelToken` (visible to every
alternative as ``workspace["_cancel"]``) and stops listening; a
well-behaved long-running alternative polls ``token.cancelled`` and
returns early, while an oblivious one runs to completion in a daemon
thread with its result discarded. The ``elimination`` policy maps onto
this the only way it can:

- ``ASYNCHRONOUS`` (default) — the paper's semantics, faithfully: the
  parent resumes immediately; losers die "at some unspecified later
  time" (here: whenever they next check the token, or at interpreter
  exit).
- ``SYNCHRONOUS`` — the parent joins the remaining threads before
  returning, so no loser is still executing when the block completes.
  Because cancellation is cooperative, this blocks for as long as the
  slowest non-cooperating loser keeps running — the honest price of
  synchronous elimination without kill.

Each alternative gets a deep copy of the workspace, so the isolation
semantics match the other backends; what differs is throughput (losers
keep burning CPU until they notice cancellation) and the GIL's
serialization of pure-Python work. The backend exists (a) for platforms
without ``fork``, (b) as the "can't eliminate siblings" ablation point
in the benchmarks, and (c) as the middle rung of the supervisor's
degradation chain.

Deterministic fault injection mirrors the fork backend where the faults
make sense in-process: CRASH and the report-corruption kinds surface as
raised exceptions, HANG parks the worker (daemon thread, so it cannot
wedge interpreter exit), SLOW_START sleeps, GUARD_EXCEPTION fails the
guard, and SPAWN_FAIL raises :class:`~repro.errors.SpawnError` so a
supervisor can degrade to sequential execution.
"""

from __future__ import annotations

import copy
import queue
import threading
import time
from typing import Any, Sequence

from repro.analysis.overhead import OverheadBreakdown
from repro.core.alternative import Alternative
from repro.core.backend import BlockRun, world_body
from repro.core.outcome import BlockOutcome
from repro.core.policy import EliminationPolicy
from repro.errors import SpawnError
from repro.faults.plan import FaultDecision, FaultKind


class CancelToken:
    """Cooperative elimination signal, shared by a block's alternatives.

    Injected into every workspace as ``workspace["_cancel"]``; a
    long-running alternative that wants to honour elimination polls
    :attr:`cancelled` and returns early (its result is discarded
    anyway). The token is stripped from the winning workspace before it
    is surfaced in ``extras["state"]``.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CancelToken(cancelled={self.cancelled})"


def _worker(
    index: int,
    alt: Alternative,
    workspace: dict,
    out: "queue.Queue",
    fault: FaultDecision | None = None,
) -> None:
    if alt.start_delay > 0:
        time.sleep(alt.start_delay)
    t0 = time.perf_counter()
    kind = fault.kind if fault is not None else None
    if kind is FaultKind.HANG:
        time.sleep(fault.param)
        status, payload = "fail", "injected hang elapsed"
    elif kind in (FaultKind.CRASH, FaultKind.TRUNCATE_REPORT, FaultKind.CORRUPT_REPORT):
        # in-process, all mean the worker dies before a usable report exists
        died = RuntimeError(f"injected {kind.value}")
        status, payload = "fail", f"alternative raised {died!r}"
    else:
        status, payload = world_body(alt, workspace, fault)
    out.put((index, status, payload, workspace, t0))


def run_alternatives_thread(
    alternatives: Sequence[Any],
    initial: dict[str, Any] | None = None,
    timeout: float | None = None,
    elimination: EliminationPolicy = EliminationPolicy.ASYNCHRONOUS,
    fault_plan=None,
    block_id: int = 0,
    attempt: int = 0,
    journal=None,
    obs=None,
    **_ignored: Any,
) -> BlockOutcome:
    """Execute a block of plain-callable alternatives on threads.

    See the module docstring for the cooperative-cancellation semantics
    of ``elimination``. Raises :class:`~repro.errors.SpawnError` on an
    injected spawn failure (already-started siblings are cancelled and
    abandoned as daemons). Block bookkeeping — guard prechecks, fault
    decisions, winner journaling, loser labels, the telemetry record —
    is the shared :class:`~repro.core.backend.BlockRun` surface; only
    the thread mechanics live here.
    """
    run = BlockRun(
        "thread", alternatives, initial, fault_plan=fault_plan,
        block_id=block_id, attempt=attempt, journal=journal, obs=obs,
    )
    reports: "queue.Queue" = queue.Queue()
    token = CancelToken()

    threads: list[threading.Thread] = []
    for index, alt in enumerate(run.alts):
        if not run.precheck_guard(index, alt):
            continue
        run.spawn_fault(
            index, alt, on_abort=token.cancel,
            detail="injected thread-start failure",
        )
        fault = run.child_fault(index, alt)
        workspace = copy.deepcopy(run.base)
        workspace["_cancel"] = token
        try:
            thread = threading.Thread(
                target=_worker, args=(index, alt, workspace, reports, fault), daemon=True
            )
            thread.start()
        except RuntimeError as exc:  # pragma: no cover - needs thread exhaustion
            token.cancel()
            raise SpawnError(f"spawning alternative {alt.name!r} failed: {exc}") from exc
        threads.append(thread)
    started = len(threads)
    t_spawned = time.perf_counter()

    deadline = None if timeout is None else run.t_start + timeout
    remaining = started
    while remaining > 0 and run.winner is None:
        wait_s = None
        if deadline is not None:
            wait_s = deadline - time.perf_counter()
            if wait_s <= 0:
                run.timed_out = True
                break
        try:
            index, status, payload, workspace, t0 = reports.get(timeout=wait_s)
        except queue.Empty:
            run.timed_out = True
            break
        remaining -= 1
        elapsed = time.perf_counter() - t0
        if status == "ok":
            workspace.pop("_cancel", None)
            run.accept(index, payload, workspace, elapsed_s=elapsed)
        else:
            run.reject(index, str(payload), elapsed_s=elapsed)

    token.cancel()  # cooperative elimination: losers see this on next poll
    if elimination is EliminationPolicy.SYNCHRONOUS:
        # no loser may still be executing when the parent resumes; with
        # cooperative cancellation this means joining them out
        for thread in threads:
            join_s = None
            if deadline is not None:
                join_s = max(0.0, deadline + 5.0 - time.perf_counter())
            thread.join(timeout=join_s)
        remaining = sum(1 for t in threads if t.is_alive())

    return run.finish(
        overhead=OverheadBreakdown(setup_s=t_spawned - run.t_start),
        extras={
            "uncollected": remaining if run.winner else 0,
            "elimination_policy": elimination.value,
        },
    )
