"""Glue between the telemetry plane and the layers it observes.

Kept out of the instrumented modules so each of them carries only
``if obs is not None: obs.<hook>(...)`` call sites; the span/metric
vocabulary — names, tracks, label sets — lives here in one place.

:class:`KernelObserver` is attached to a :class:`~repro.kernel.kernel.Kernel`
built with ``obs=``; it records one span per world (track = wid, so the
exported trace shows one lane per world), one span per alternative
block, and the world-lineage chain from the root down. All kernel times
are virtual seconds.

:func:`record_block` is the shared hook of every OS-style runner, fired
from ``BlockRun.finish``. The runners don't instrument their wait
loops; after a block settles they reconstruct the child lifetimes from
the recorded elapsed times — wall-clock seconds on the tracer's
relative timebase.
"""

from __future__ import annotations

from typing import Any

#: MemoryStats attributes published as ``mw_mem_*`` callback gauges.
MEMORY_ATTRS = (
    "frames_allocated", "frames_freed", "cow_faults", "pages_copied",
    "bytes_copied", "page_reads", "page_writes", "forks", "pte_copies",
)


class KernelObserver:
    """Per-kernel span/metric recorder (created by ``Kernel(obs=...)``)."""

    def __init__(self, obs, kernel) -> None:
        from repro.obs.metrics import bind_attr_gauges

        self.obs = obs
        self.tracer = obs.tracer
        reg = obs.registry
        # One Observability often outlives many kernels (sim blocks,
        # supervisor retries, table sweeps); cache the metric handles on
        # the bundle so later kernels skip re-registration.
        cached = getattr(obs, "_kernel_metrics", None)
        if cached is None:
            cached = obs._kernel_metrics = (
                reg.counter(
                    "mw_worlds_total", "World lifecycle events",
                    labelnames=("disposition",),
                ),
                reg.counter(
                    "mw_splits_total", "Worlds cloned by predicated message splits"
                ),
                reg.counter(
                    "mw_alt_blocks_total", "Alternative blocks settled",
                    labelnames=("result",),
                ),
                reg.histogram(
                    "mw_commit_response_s",
                    "Alt-block response time, issue to parent resume "
                    "(virtual seconds)",
                    unit="s",
                ),
            )
        self.worlds_c, self.splits_c, self.blocks_c, self.commit_h = cached
        # the mw_mem_* shims must follow THIS kernel's stats bundle
        stats = kernel.pool.stats
        gauges = getattr(obs, "_kernel_mem_gauges", None)
        if gauges is None:
            obs._kernel_mem_gauges = bind_attr_gauges(
                reg, stats, MEMORY_ATTRS, prefix="mw_mem"
            )
        else:
            for gauge, attr in zip(gauges, MEMORY_ATTRS):
                gauge.fn = lambda o=stats, a=attr: float(getattr(o, a))
        if kernel.fault_plan is not None:
            obs.watch_fault_plan(kernel.fault_plan)
        self._world_spans: dict[int, int] = {}
        self._lineage: dict[int, tuple[int, ...]] = {}
        self._block_spans: dict[int, int] = {}

    def lineage_of(self, wid: int) -> tuple[int, ...]:
        return self._lineage.get(wid, ())

    # -- worlds ------------------------------------------------------------
    def world_started(self, now: float, world) -> None:
        lineage = self._lineage.get(world.parent_wid, ()) + (world.wid,)
        self._lineage[world.wid] = lineage
        self.worlds_c.inc(disposition="spawned")
        tr = self.tracer
        if not tr.enabled:  # metrics stay on; skip the span-side work
            return
        tr.set_track_name(world.wid, f"wid {world.wid} · {world.name}")
        attrs: dict[str, Any] = {}
        if world.parent_wid is not None:
            attrs["parent_wid"] = world.parent_wid
        if world.cloned_from is not None:
            attrs["cloned_from"] = world.cloned_from
        sid = tr.begin(
            world.name, cat="world", track=world.wid, t=now,
            wid=world.wid, pid=world.pid, lineage=lineage, **attrs,
        )
        if sid >= 0:
            self._world_spans[world.wid] = sid

    def world_finished(
        self, now: float, world, disposition: str, **attrs: Any
    ) -> None:
        sid = self._world_spans.pop(world.wid, None)
        background = world.name.startswith("reaper-")
        self.worlds_c.inc(disposition="background" if background else disposition)
        if sid is None:
            return
        extra: dict[str, Any] = {"cpu_s": world.cpu_time_s}
        if background:
            extra["background"] = True
        extra.update(attrs)
        self.tracer.end(sid, t=now, disposition=disposition, **extra)

    def split(self, now: float, orig, clone) -> None:
        self.splits_c.inc()
        if not self.tracer.enabled:
            return
        self.tracer.instant(
            "world-split", cat="kernel", track=orig.wid, t=now,
            wid=orig.wid, clone_wid=clone.wid,
        )

    # -- alt blocks --------------------------------------------------------
    def block_opened(self, group, parent) -> None:
        if not self.tracer.enabled:
            return
        sid = self.tracer.begin(
            f"alt-block g{group.group_id}", cat="alt-block", track=parent.wid,
            t=group.issued_at, wid=parent.wid, pid=parent.pid,
            lineage=self.lineage_of(parent.wid), group=group.group_id,
        )
        if sid >= 0:
            self._block_spans[group.group_id] = sid

    def block_settled(self, now: float, group) -> None:
        committed = group.committed_at if group.committed_at is not None else now
        resumed = (
            group.parent_resumed_at if group.parent_resumed_at is not None else now
        )
        if group.timed_out:
            result = "timeout"
        elif group.winner_pid is not None:
            result = "committed"
        else:
            result = "failed"
        response = resumed - group.issued_at
        self.blocks_c.inc(result=result)
        self.commit_h.observe(response)
        sid = self._block_spans.pop(group.group_id, None)
        if sid is None:
            return
        self.tracer.end(
            sid, t=resumed,
            disposition="committed" if result == "committed" else "aborted",
            result=result, response_s=response,
            c_best_s=committed - group.spawned_at,
            setup_s=group.overhead.setup_s,
            elimination_s=group.overhead.completion_s,
            cow_s=group.overhead.runtime_s,
            winner_pid=group.winner_pid, n_eliminated=group.n_eliminated,
        )


def _loser_disposition(result) -> str:
    """Map an OS-backend loser record onto the span disposition taxonomy."""
    error = (result.error or "").lower()
    if result.guard_failed:
        return "aborted"
    if "eliminat" in error or "cancel" in error or "timeout" in error or "lost" in error:
        return "eliminated"
    return "aborted"


def record_block(
    obs,
    *,
    backend: str,
    block_id: int,
    attempt: int,
    t_start: float,
    outcome,
) -> None:
    """Record one settled OS-backend block: block span + child spans.

    ``t_start`` is the backend's absolute clock reading at block entry
    (``time.perf_counter()``); child lifetimes are reconstructed from
    the per-alternative elapsed times, so losers that were eliminated
    (rather than failing on their own) show lanes cut short at roughly
    the commit instant.
    """
    winner = outcome.winner
    if winner is not None:
        result = "committed"
    elif outcome.timed_out:
        result = "timeout"
    else:
        result = "failed"
    obs.registry.counter(
        "mw_backend_blocks_total", "OS-backend blocks settled",
        labelnames=("backend", "result"),
    ).inc(backend=backend, result=result)
    obs.registry.histogram(
        "mw_backend_block_s", "OS-backend block wall time", unit="s",
        labelnames=("backend",),
    ).observe(outcome.elapsed_s, backend=backend)
    children_c = obs.registry.counter(
        "mw_backend_children_total", "OS-backend child outcomes",
        labelnames=("backend", "disposition"),
    )
    tr = obs.tracer
    if not tr.enabled:  # metrics recorded; skip the span reconstruction
        for res, disposition in _child_results(outcome):
            children_c.inc(backend=backend, disposition=disposition)
        return
    track = f"{backend}:b{block_id}.a{attempt}"
    tr.set_track_name(track, f"{backend} block {block_id} attempt {attempt}")
    start = tr.rel(t_start)
    end = start + outcome.elapsed_s
    tr.complete(
        f"{backend}-block {block_id}", start, end, cat="alt-block", track=track,
        disposition="committed" if result == "committed" else "aborted",
        result=result, backend=backend, block_id=block_id, attempt=attempt,
        setup_s=outcome.overhead.setup_s, elapsed_s=outcome.elapsed_s,
        uncollected=outcome.extras.get("uncollected", 0),
    )
    spawned = start + outcome.overhead.setup_s
    for res, disposition in _child_results(outcome):
        children_c.inc(backend=backend, disposition=disposition)
        child_end = spawned + res.elapsed_s if res.elapsed_s is not None else spawned
        tr.complete(
            res.name, spawned, min(max(child_end, spawned), end), cat="child",
            track=track, disposition=disposition, index=res.index,
            error=res.error, backend=backend,
        )
    for event in outcome.extras.get("watchdog", []) or []:
        tr.instant(
            "watchdog", cat="fault", track=track,
            t=start + float(event.get("at_s", 0.0)) if isinstance(event, dict) else None,
            detail=str(event),
        )


def _child_results(outcome):
    if outcome.winner is not None:
        yield outcome.winner, "committed"
    for loser in outcome.losers:
        yield loser, _loser_disposition(loser)
