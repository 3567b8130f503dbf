"""Degenerate Multiple Worlds: one alternative at a time, in-process.

The last rung of the supervisor's degradation ladder (``fork -> thread
-> sequential``): when even thread creation fails, the block's semantics
can still be honoured by classic standby-spares execution — try each
alternative in order against a fresh deep copy of the workspace, commit
the first whose guard accepts. Response time degrades to the sum of the
failed prefix (exactly the sequential cost the paper's parallel
execution eliminates) but the observable result remains one a
sequential execution could have produced, which is the only semantic
contract the block makes.

No worlds are spawned, so spawn faults cannot fire here; child-site
faults still apply (a crash is a crash wherever the code runs) — except
HANG, which is recorded as a failure instead of executed, since hanging
the only thread of control would deadlock the degraded block.
"""

from __future__ import annotations

import copy
import time
from typing import Any, Sequence

from repro.core.backend import BlockRun, world_body
from repro.core.outcome import BlockOutcome
from repro.faults.plan import FaultKind


def run_alternatives_sequential(
    alternatives: Sequence[Any],
    initial: dict[str, Any] | None = None,
    timeout: float | None = None,
    fault_plan=None,
    block_id: int = 0,
    attempt: int = 0,
    journal=None,
    obs=None,
    **_ignored: Any,
) -> BlockOutcome:
    """Try alternatives in order; first guard-accepted result wins.

    Block bookkeeping — fault decisions, winner journaling, loser
    labels, the telemetry record — is the shared
    :class:`~repro.core.backend.BlockRun` surface; only the in-order
    execution loop lives here.
    """
    run = BlockRun(
        "sequential", alternatives, initial, fault_plan=fault_plan,
        block_id=block_id, attempt=attempt, journal=journal, obs=obs,
    )
    deadline = None if timeout is None else run.t_start + timeout

    # BEFORE_SPAWN guards are parent-side decisions on every backend: a
    # rejected alternative is a recorded loser even if an earlier one
    # wins before the in-order loop would have reached it.
    runnable = [
        (index, alt)
        for index, alt in enumerate(run.alts)
        if run.precheck_guard(index, alt)
    ]

    for index, alt in runnable:
        if deadline is not None and time.perf_counter() >= deadline:
            run.timed_out = True
            run.reject(
                index, "timeout-killed",
                elapsed_s=time.perf_counter() - run.t_start,
            )
            continue
        fault = run.child_fault(index, alt)
        t0 = time.perf_counter()
        kind = fault.kind if fault is not None else None
        if kind is FaultKind.HANG:
            run.reject(
                index,
                "injected hang (skipped: sequential execution cannot hang)",
            )
            continue
        if kind in (FaultKind.CRASH, FaultKind.TRUNCATE_REPORT, FaultKind.CORRUPT_REPORT):
            run.reject(index, f"injected {kind.value}")  # all mean "no result arrived"
            continue
        workspace = copy.deepcopy(run.base)
        status, payload = world_body(alt, workspace, fault)
        if status == "ok":
            run.accept(index, payload, workspace, elapsed_s=time.perf_counter() - t0)
            break
        # an exception whose text mentions a guard is still not a guard failure
        run.reject(
            index, payload, guard_failed=payload.startswith("guard "),
            elapsed_s=time.perf_counter() - t0,
        )

    return run.finish(extras={"sequential": True})
