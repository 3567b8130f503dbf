"""The null plane: what a layer built without ``obs`` records into.

:data:`NULL_OBS` has the shape of an :class:`~repro.obs.Observability`
and keeps nothing. Its registry hands every caller one shared no-op
metric, its tracer records no span (``begin`` returns -1, and ``end(-1)``
does nothing), and its fault, finalize and backend hooks do nothing. A
layer takes it through :func:`or_null` and then registers and writes
unconditionally, so whether telemetry is on is decided here, once.

This module imports nothing: a process that never builds a real plane
never loads the registry, the tracer or the integration hooks.
"""

from __future__ import annotations


class _NullMetric:
    """Every counter, gauge and histogram of the null registry."""

    __slots__ = ()

    def inc(self, amount=1.0, **labels) -> None:
        pass

    def set(self, value, **labels) -> None:
        pass

    def observe(self, value, **labels) -> None:
        pass


class _NullRegistry:
    """A registry that hands out :data:`_METRIC` and lists nothing."""

    __slots__ = ()

    def counter(self, name, help="", unit="", labelnames=()) -> _NullMetric:
        return _METRIC

    def gauge(self, name, help="", unit="", labelnames=()) -> _NullMetric:
        return _METRIC

    def histogram(self, name, help="", unit="", labelnames=(), buckets=()) -> _NullMetric:
        return _METRIC

    def attr_gauges(self, obj, attrs, prefix, help_fmt="") -> list:
        return []

    def collect(self) -> list:
        return []

    def __len__(self) -> int:
        return 0


class _NullSpan:
    """What the null tracer's ``span()`` yields: settles nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def settle(self, disposition, **attrs) -> None:
        pass


class _NullTracer:
    """A tracer that records no span, instant or track name."""

    __slots__ = ()
    spans: tuple = ()

    def begin(self, name, **attrs) -> int:
        return -1

    def end(self, span_id, **attrs) -> None:
        pass

    def span(self, name, **attrs) -> _NullSpan:
        return _SPAN

    def complete(self, name, start, end, **attrs) -> int:
        return -1

    def instant(self, name, **attrs) -> int:
        return -1

    def set_track_name(self, track, name) -> None:
        pass

    def __len__(self) -> int:
        return 0


class _NullPlane:
    """The shape of an :class:`~repro.obs.Observability`, recording nothing."""

    __slots__ = ()
    registry = _NullRegistry()
    tracer = _NullTracer()

    def on_fault(self, site, kind, t=None, detail="", track=None, **data) -> None:
        pass

    def watch_fault_plan(self, plan) -> None:
        """Leave ``plan`` reporting wherever it reports (a real plane
        that watched it keeps it)."""

    def finalize(self, t=None) -> int:
        return 0

    def record_block(self, **block) -> None:
        pass

    def kernel_observer(self, kernel) -> None:
        return None

    def __reduce__(self) -> str:
        return "NULL_OBS"  # one null plane per process, pickled by name

    def __repr__(self) -> str:
        return "NULL_OBS"


_METRIC = _NullMetric()
_SPAN = _NullSpan()

#: The one null plane.
NULL_OBS = _NullPlane()


def or_null(obs):
    """The plane a layer built with ``obs`` records into: ``obs`` itself,
    or :data:`NULL_OBS` when it is None."""
    return NULL_OBS if obs is None else obs
