"""`run_alternatives`: the user-facing Multiple Worlds entry point.

One call executes a block of mutually exclusive alternatives on a chosen
backend and returns a :class:`~repro.core.outcome.BlockOutcome`. The
backend list below is generated from the registry in
:mod:`repro.core.backend` (so it cannot go stale):

{backend_list}

All backends share the same sequential semantics: the observable result
is one some sequential execution of a single alternative could have
produced (paper section 3.3).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.analysis.calibration import MODERN_SIM, MachineProfile
from repro.core.backend import (
    backend_names,
    backend_summaries,
    normalize_alternatives,
    resolve_backend,
)
from repro.core.outcome import AlternativeResult, BlockOutcome
from repro.core.policy import EliminationPolicy
from repro.errors import WorldsError
from repro.obs import or_null

__doc__ = (__doc__ or "").format(
    backend_list="\n".join(
        f'- ``backend="{name}"`` — {summary};' for name, summary in backend_summaries()
    )
)


def __getattr__(name: str):
    # PEP 562: ``BACKENDS`` is computed from the live registry so that
    # backends registered after import (plugins, tests) appear too.
    if name == "BACKENDS":
        return backend_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + ["BACKENDS"])


def outcome_from_alt(alt_outcome, state: dict | None = None, extras: dict | None = None) -> BlockOutcome:
    """Convert a kernel :class:`~repro.kernel.syscalls.AltOutcome`."""
    winner = None
    losers = []
    for rec in alt_outcome.children:
        result = AlternativeResult(
            index=rec.index,
            name=rec.name,
            value=rec.value,
            succeeded=rec.status == "committed",
            guard_failed=rec.status == "guard-rejected",
            error=rec.reason or None,
            elapsed_s=(rec.finished_at - alt_outcome.spawned_at)
            if rec.finished_at is not None
            else 0.0,
        )
        if rec.status == "committed":
            winner = result
        else:
            losers.append(result)
    elapsed = alt_outcome.response_s if alt_outcome.parent_resumed_at else (
        alt_outcome.committed_at - alt_outcome.spawned_at
    )
    out = BlockOutcome(
        winner=winner,
        elapsed_s=elapsed,
        overhead=alt_outcome.overhead,
        timed_out=alt_outcome.timed_out,
        losers=losers,
    )
    if state is not None:
        out.extras["state"] = state
    if extras:
        out.extras.update(extras)
    return out


def run_alternatives_sim(
    alternatives: Sequence[Any],
    initial: dict[str, Any] | None = None,
    timeout: float | None = None,
    elimination: EliminationPolicy = EliminationPolicy.ASYNCHRONOUS,
    profile: MachineProfile = MODERN_SIM,
    cpus: int | None = None,
    seed: int = 0,
    trace: bool = False,
    fault_plan=None,
    journal=None,
    obs=None,
):
    """Execute one block on a fresh simulation kernel.

    Returns ``(BlockOutcome, Kernel)`` — the kernel is returned so callers
    can inspect stats, traces and devices. ``fault_plan`` enables the
    kernel's deterministic fault hooks (message drop/delay, stalls);
    ``journal`` (a :class:`~repro.journal.CommitJournal`) makes the
    kernel's commit/eliminate/split decisions crash-durable; ``obs``
    (an :class:`~repro.obs.Observability`) records world/block spans and
    speculation metrics in virtual time.
    """
    from repro.kernel import Kernel  # local import: kernel depends on core

    alts = normalize_alternatives(alternatives)
    kernel = Kernel(
        profile=profile, cpus=cpus, seed=seed, trace=trace,
        fault_plan=fault_plan, journal=journal, obs=obs,
    )
    box: dict[str, Any] = {}

    def driver(ctx):
        outcome = yield from ctx.run_alternatives(alts, timeout, elimination)
        box["alt_outcome"] = outcome
        box["state"] = yield ctx.snapshot()
        return outcome.value

    kernel.spawn(driver, name="block-parent", heap_init=initial)
    kernel.run()
    alt_outcome = box.get("alt_outcome")
    if alt_outcome is None:
        raise WorldsError("block driver did not complete")
    outcome = outcome_from_alt(
        alt_outcome,
        state=box.get("state"),
        extras={"virtual_time": kernel.now},
    )
    return outcome, kernel


def run_alternatives(
    alternatives: Sequence[Any],
    initial: dict[str, Any] | None = None,
    timeout: float | None = None,
    elimination: EliminationPolicy = EliminationPolicy.ASYNCHRONOUS,
    backend: str = "sim",
    fault_plan=None,
    block_id: int = 0,
    attempt: int = 0,
    watchdog=None,
    journal=None,
    obs=None,
    **kwargs: Any,
) -> BlockOutcome:
    """Run a block of mutually exclusive alternatives; return the outcome.

    ``alternatives`` are :class:`Alternative` objects or callables. For
    the ``sim`` backend, callables may be generator programs or plain
    functions of a dict workspace; for the OS-style backends
    (``fork``/``thread``/``sequential``) they are plain functions of a
    dict workspace, and for ``async`` they may additionally be coroutine
    functions. At most one alternative's state change survives into
    ``outcome.extras["state"]``.

    Dispatch goes through the backend registry in
    :mod:`repro.core.backend`; an unknown ``backend`` raises
    :class:`~repro.errors.WorldsError` listing the valid names before
    any side effect occurs.

    Robustness plumbing (see :mod:`repro.faults`): ``fault_plan`` injects
    a deterministic fault schedule into whichever backend runs the block
    (``block_id``/``attempt`` namespace its fault keys); ``watchdog`` is
    a :class:`~repro.core.policy.WatchdogPolicy` enabling per-alternative
    SIGTERM→SIGKILL hang escalation on the fork backend (ignored by the
    backends that have no processes to signal); ``journal`` (a
    :class:`~repro.journal.CommitJournal`) records the block's winner
    durably — the sim backend journals every kernel transition, the
    others seal a single ``block`` transaction at winner acceptance;
    ``obs`` (an :class:`~repro.obs.Observability`) records spans and
    metrics for the block on whichever backend runs it.
    """
    runner = resolve_backend(backend)  # raises before any side effect
    obs = or_null(obs)
    if fault_plan is not None:
        # fault-plane correlation: every injection the backend acts on
        # also lands as an annotation instant + counter increment (the
        # sim kernel wires this itself via KernelObserver)
        obs.watch_fault_plan(fault_plan)
    return runner(
        alternatives, initial, timeout, elimination=elimination,
        fault_plan=fault_plan, block_id=block_id, attempt=attempt,
        watchdog=watchdog, journal=journal, obs=obs, **kwargs
    )


def first_of(*fns: Callable[[dict], Any], **kwargs: Any) -> BlockOutcome:
    """Convenience: run bare callables as a block with default settings."""
    return run_alternatives(list(fns), **kwargs)
