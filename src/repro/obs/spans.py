"""Span tracing: timed intervals carrying world identity and disposition.

A :class:`Span` is an interval on a *track* — for kernel worlds the
track is the world id, so an exported trace shows one lane per world
and an eliminated world's lane visibly ends at its kill time. Each span
carries the world identity triple (``wid``, ``pid``, ``lineage`` — the
wid-chain from the root alternative down) and a ``disposition`` that is
the paper's taxonomy of speculative work:

- ``speculative`` — still running, or never resolved (the default);
- ``committed`` — this world's result was accepted by its parent;
- ``eliminated`` — a sibling won and this world's work was wasted;
- ``aborted`` — the world failed on its own (guard rejection, crash).

Timebases: the tracer has a ``clock`` callable and records times
*relative to its creation* (so wall-clock spans start near zero, like
the kernel's virtual clock does). Components with their own notion of
time — the kernel's virtual-time scheduler, the simulated network
link — pass explicit ``t=`` values instead of consulting the clock;
the ``cat`` field says which domain a span belongs to. Mixing virtual
and wall seconds in one trace is deliberate: both are "seconds since
the run started" and land on comparable scales.

The buffer is bounded. Past ``limit`` new spans are counted in
:attr:`Tracer.dropped` rather than silently vanishing — the same
contract the kernel :class:`~repro.kernel.trace.Trace` keeps — and
``end()``/annotation of already-recorded spans keeps working so open
spans always resolve.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.obs.null import NULL_OBS

#: Recognised span dispositions (exporters validate against this set).
DISPOSITIONS = ("speculative", "committed", "eliminated", "aborted")

#: Spans a tracer buffers before it counts drops instead.
SPAN_LIMIT = 200_000


@dataclass(slots=True)
class Span:
    """One timed interval (or instant, when ``end == start``)."""

    span_id: int
    name: str
    cat: str = "span"
    track: Any = 0
    start: float = 0.0
    end: float | None = None
    kind: str = "span"  # "span" | "instant"
    wid: int | None = None
    pid: int | None = None
    lineage: tuple[int, ...] = ()
    disposition: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the JSONL exporter writes exactly this)."""
        out: dict[str, Any] = {
            "span_id": self.span_id, "name": self.name, "cat": self.cat,
            "kind": self.kind, "track": self.track, "start": self.start,
            "end": self.end,
        }
        if self.wid is not None:
            out["wid"] = self.wid
        if self.pid is not None:
            out["pid"] = self.pid
        if self.lineage:
            out["lineage"] = list(self.lineage)
        if self.disposition is not None:
            out["disposition"] = self.disposition
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """Collects spans and instants on a shared, bounded buffer.

    ``enabled=False`` makes every method a near-no-op (one attribute
    check) so instrumented code can stay unconditional. ``clock`` is
    any zero-argument float callable; times are recorded relative to
    the tracer's creation instant.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
        limit: int | None = SPAN_LIMIT,
    ) -> None:
        self.enabled = enabled
        self.clock = clock
        self.limit = limit
        self.spans: list[Span] = []
        self.dropped = 0
        self.track_names: dict[Any, str] = {}
        self._epoch = clock()
        self._next_id = 0
        self._open: dict[int, Span] = {}

    # -- time --------------------------------------------------------------
    def now(self) -> float:
        """Current time on this tracer's relative timebase."""
        return self.clock() - self._epoch

    def rel(self, t_abs: float) -> float:
        """Convert an absolute ``clock()`` reading to the relative base."""
        return t_abs - self._epoch

    # -- recording ---------------------------------------------------------
    def _alloc(self, span: Span) -> int:
        if self.limit is not None and len(self.spans) >= self.limit:
            self.dropped += 1
            return -1
        self.spans.append(span)
        return span.span_id

    def begin(
        self,
        name: str,
        *,
        cat: str = "span",
        track: Any = 0,
        t: float | None = None,
        wid: int | None = None,
        pid: int | None = None,
        lineage: tuple[int, ...] = (),
        **attrs: Any,
    ) -> int:
        """Open a span; returns its id (pass to :meth:`end`), -1 if off/full."""
        if not self.enabled:
            return -1
        self._next_id += 1
        span = Span(
            span_id=self._next_id, name=name, cat=cat, track=track,
            start=self.now() if t is None else t,
            wid=wid, pid=pid, lineage=tuple(lineage), attrs=attrs,
        )
        if self._alloc(span) < 0:
            return -1
        self._open[span.span_id] = span
        return span.span_id

    def end(
        self,
        span_id: int,
        *,
        t: float | None = None,
        disposition: str | None = None,
        **attrs: Any,
    ) -> None:
        """Close an open span, optionally settling its disposition."""
        if not self.enabled or span_id < 0:
            return
        span = self._open.pop(span_id, None)
        if span is None:
            return
        span.end = self.now() if t is None else t
        if disposition is not None:
            span.disposition = disposition
        if attrs:
            span.attrs.update(attrs)

    @contextmanager
    def span(
        self,
        name: str,
        *,
        cat: str = "span",
        track: Any = 0,
        wid: int | None = None,
        pid: int | None = None,
        lineage: tuple[int, ...] = (),
        **attrs: Any,
    ) -> Iterator["_SpanHandle"]:
        """Context-manager form; disposition defaults by exit path.

        A clean exit settles ``committed`` (unless the handle set
        something else), an exception settles ``aborted``.
        """
        sid = self.begin(
            name, cat=cat, track=track, wid=wid, pid=pid,
            lineage=lineage, **attrs,
        )
        handle = _SpanHandle(self, sid)
        try:
            yield handle
        except BaseException:
            self.end(sid, disposition=handle.disposition or "aborted")
            raise
        self.end(sid, disposition=handle.disposition or "committed", **handle.attrs)

    def complete(
        self,
        name: str,
        start: float,
        end: float,
        *,
        cat: str = "span",
        track: Any = 0,
        wid: int | None = None,
        pid: int | None = None,
        lineage: tuple[int, ...] = (),
        disposition: str | None = None,
        **attrs: Any,
    ) -> int:
        """Record an already-finished interval in one call.

        Used by backends that reconstruct child lifetimes from elapsed
        times after the block settles, rather than instrumenting their
        select loops.
        """
        if not self.enabled:
            return -1
        self._next_id += 1
        span = Span(
            span_id=self._next_id, name=name, cat=cat, track=track,
            start=start, end=end, wid=wid, pid=pid, lineage=tuple(lineage),
            disposition=disposition, attrs=attrs,
        )
        return self._alloc(span)

    def instant(
        self,
        name: str,
        *,
        cat: str = "event",
        track: Any = 0,
        t: float | None = None,
        wid: int | None = None,
        **attrs: Any,
    ) -> int:
        """Record a zero-duration annotation event."""
        if not self.enabled:
            return -1
        self._next_id += 1
        at = self.now() if t is None else t
        span = Span(
            span_id=self._next_id, name=name, cat=cat, track=track,
            start=at, end=at, kind="instant", wid=wid, attrs=attrs,
        )
        return self._alloc(span)

    # -- track metadata ----------------------------------------------------
    def set_track_name(self, track: Any, name: str) -> None:
        if self.enabled:
            self.track_names[track] = name

    # -- lifecycle ---------------------------------------------------------
    def open_spans(self) -> list[Span]:
        return list(self._open.values())

    def finish_open(self, t: float | None = None, disposition: str = "speculative") -> int:
        """Close any still-open spans (e.g. worlds alive at run end)."""
        closed = 0
        for sid in list(self._open):
            self.end(sid, t=t, disposition=disposition)
            closed += 1
        return closed

    def __len__(self) -> int:
        return len(self.spans)


class _SpanHandle:
    """What ``with tracer.span(...)`` yields: settle disposition/attrs."""

    __slots__ = ("_tracer", "span_id", "disposition", "attrs")

    def __init__(self, tracer: Tracer, span_id: int) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.disposition: str | None = None
        self.attrs: dict[str, Any] = {}

    def settle(self, disposition: str, **attrs: Any) -> None:
        self.disposition = disposition
        self.attrs.update(attrs)


#: The null plane's tracer, for call sites that want unconditional syntax.
NULL_TRACER = NULL_OBS.tracer
