"""Exporters, schema validators, and the per-run ``SpeculationReport``.

Three ways out of the telemetry plane:

- :func:`write_jsonl` — one JSON object per line (a ``meta`` header,
  then every span), the stable machine-readable form other tooling
  diffs across runs;
- :func:`write_chrome_trace` — Chrome trace-event JSON loadable in
  Perfetto / ``chrome://tracing``. Every span track becomes one named
  thread lane, so kernel worlds (track = wid) render one lane per world
  and an eliminated world's lane visibly stops at its kill time;
- :class:`SpeculationReport` — the paper's headline quantities for one
  run: wasted-work ratio (CPU spent on eliminated worlds), write
  fraction (COW pages privatized per page-table entry inherited), and
  the commit-latency breakdown into ``τ(C_best)`` versus fork /
  elimination / COW / journal overhead.

The ``validate_*`` functions check exported files against the schema;
CI runs them on the Figure 1 smoke artifacts so a malformed exporter
(or a metric registered twice under one name) fails the build rather
than a later analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import DISPOSITIONS, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel

#: Bumped when the JSONL line shape changes incompatibly.
SCHEMA_VERSION = 1

#: Perfetto colour names keyed by disposition (``cname`` is a documented
#: trace-event field; unknown values are ignored by viewers).
_DISPOSITION_COLOURS = {
    "committed": "good",
    "eliminated": "terrible",
    "aborted": "bad",
    "speculative": "grey",
}


class SchemaError(ValueError):
    """An exported telemetry artifact does not match the schema."""


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------
def jsonl_lines(tracer: Tracer) -> list[dict]:
    """The JSONL export as dicts: a meta header, then one dict per span."""
    lines: list[dict] = [{
        "type": "meta",
        "schema": SCHEMA_VERSION,
        "spans": len(tracer.spans),
        "dropped": tracer.dropped,
        "tracks": {str(k): v for k, v in tracer.track_names.items()},
    }]
    for span in tracer.spans:
        rec = span.to_dict()
        rec["type"] = "span"
        lines.append(rec)
    return lines


def write_jsonl(tracer: Tracer, path: str) -> int:
    """Write the trace as JSONL; returns the number of span lines."""
    lines = jsonl_lines(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in lines:
            fh.write(json.dumps(rec, default=str) + "\n")
    return len(lines) - 1


def validate_jsonl(path: str) -> int:
    """Check a JSONL trace file against the schema; returns span count.

    Raises :class:`SchemaError` on the first violation.
    """
    count = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: not JSON: {exc}") from None
            if lineno == 1:
                if rec.get("type") != "meta" or rec.get("schema") != SCHEMA_VERSION:
                    raise SchemaError(
                        f"{path}:1: first line must be a schema-{SCHEMA_VERSION} "
                        f"meta header, got {rec.get('type')!r}"
                    )
                continue
            if rec.get("type") != "span":
                raise SchemaError(f"{path}:{lineno}: unknown line type {rec.get('type')!r}")
            for key in ("span_id", "name", "cat", "kind", "track", "start"):
                if key not in rec:
                    raise SchemaError(f"{path}:{lineno}: span missing {key!r}")
            if rec["kind"] not in ("span", "instant"):
                raise SchemaError(f"{path}:{lineno}: bad kind {rec['kind']!r}")
            disposition = rec.get("disposition")
            if disposition is not None and disposition not in DISPOSITIONS:
                raise SchemaError(
                    f"{path}:{lineno}: bad disposition {disposition!r}"
                )
            end = rec.get("end")
            if end is not None and end < rec["start"] - 1e-9:
                raise SchemaError(f"{path}:{lineno}: span ends before it starts")
            count += 1
    if count == 0:
        raise SchemaError(f"{path}: no spans")
    return count


# ---------------------------------------------------------------------------
# Chrome trace-event format
# ---------------------------------------------------------------------------
def chrome_trace_events(tracer: Tracer, process_name: str = "multiple-worlds") -> list[dict]:
    """Trace-event list: metadata rows naming the tracks, then the spans.

    Integer tracks (kernel wids) keep their value as the ``tid``;
    non-integer tracks (``"journal"``, ``"link:0"`` …) get stable ids
    allocated from 1,000,000 up so they never collide with a wid.
    """
    events: list[dict] = [{
        "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }]
    tids: dict[Any, int] = {}

    def tid_of(track: Any) -> int:
        if isinstance(track, int):
            return track
        if track not in tids:
            tids[track] = 1_000_000 + len(tids)
        return tids[track]

    named: set[int] = set()

    def name_track(track: Any, name: str) -> None:
        tid = tid_of(track)
        if tid in named:
            return
        named.add(tid)
        events.append({
            "ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
            "args": {"name": name},
        })

    for track, name in tracer.track_names.items():
        name_track(track, name)
    for span in tracer.spans:
        tid = tid_of(span.track)
        if tid not in named and not isinstance(span.track, int):
            name_track(span.track, str(span.track))
        args: dict[str, Any] = dict(span.attrs)
        if span.wid is not None:
            args["wid"] = span.wid
        if span.pid is not None:
            args["pid"] = span.pid
        if span.lineage:
            args["lineage"] = "/".join(str(w) for w in span.lineage)
        if span.disposition is not None:
            args["disposition"] = span.disposition
        if span.kind == "instant":
            events.append({
                "ph": "i", "s": "t", "name": span.name, "cat": span.cat,
                "pid": 0, "tid": tid, "ts": span.start * 1e6, "args": args,
            })
            continue
        end = span.end if span.end is not None else span.start
        event = {
            "ph": "X", "name": span.name, "cat": span.cat, "pid": 0,
            "tid": tid, "ts": span.start * 1e6,
            "dur": max((end - span.start) * 1e6, 0.0),
            "args": args,
        }
        colour = _DISPOSITION_COLOURS.get(span.disposition or "")
        if colour is not None:
            event["cname"] = colour
        events.append(event)
    return events


def write_chrome_trace(
    tracer: Tracer, path: str, process_name: str = "multiple-worlds",
) -> int:
    """Write a Perfetto-loadable trace file; returns the event count."""
    events = chrome_trace_events(tracer, process_name=process_name)
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": SCHEMA_VERSION, "dropped_spans": tracer.dropped},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, default=str)
    return len(events)


def validate_chrome_trace(path: str) -> int:
    """Check a trace-event file; returns the number of X/i events."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not JSON: {exc}") from None
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise SchemaError(f"{path}: no traceEvents array")
    count = 0
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            raise SchemaError(f"{path}: event {i}: unknown phase {ph!r}")
        if "name" not in ev or "pid" not in ev or "tid" not in ev:
            raise SchemaError(f"{path}: event {i}: missing name/pid/tid")
        if ph == "X":
            if "ts" not in ev or ev.get("dur", -1) < 0:
                raise SchemaError(f"{path}: event {i}: X needs ts and dur >= 0")
            count += 1
        elif ph == "i":
            if "ts" not in ev:
                raise SchemaError(f"{path}: event {i}: instant needs ts")
            count += 1
    if count == 0:
        raise SchemaError(f"{path}: metadata only, no span/instant events")
    return count


def validate_metrics(registry: MetricsRegistry) -> int:
    """Check the registry's collected output; returns the metric count.

    Name uniqueness is enforced at registration time
    (:class:`~repro.obs.metrics.DuplicateMetricError`); this re-verifies
    the exported form plus basic sample sanity, so a smoke run fails
    loudly if either invariant regresses.
    """
    collected = registry.collect()
    seen: set[str] = set()
    for desc in collected:
        name = desc["name"]
        if name in seen:
            raise SchemaError(f"metric {name!r} appears twice in collect()")
        seen.add(name)
        if desc["type"] not in ("counter", "gauge", "histogram"):
            raise SchemaError(f"metric {name!r} has unknown type {desc['type']!r}")
        for sample in desc["samples"]:
            if not isinstance(sample.get("value"), (int, float)):
                raise SchemaError(f"metric {name!r} has a non-numeric sample")
    return len(collected)


# ---------------------------------------------------------------------------
# SpeculationReport
# ---------------------------------------------------------------------------
@dataclass
class SpeculationReport:
    """The paper's headline quantities, computed from one run's telemetry.

    ``wasted_work_ratio`` mirrors
    :attr:`~repro.kernel.kernel.UtilizationReport.speculation_waste`
    (eliminated + background CPU over total CPU) but is derived from the
    world *spans*, so it doubles as a consistency check on the span
    plane. ``write_fraction`` is ``cow_faults / pte_copies`` — distinct
    from the per-child :class:`~repro.memory.stats.WriteFractionReport`,
    this is the machine-wide pages-privatized-per-pte-inherited rate.
    """

    wall_s: float = 0.0
    cpus: int = 0
    useful_cpu_s: float = 0.0
    wasted_cpu_s: float = 0.0
    background_cpu_s: float = 0.0
    worlds: dict[str, int] = field(default_factory=dict)
    pages_inherited: int = 0
    pages_written: int = 0
    commit: dict[str, float] = field(default_factory=dict)
    journal_records: int = 0
    faults_injected: int = 0
    source: str = "kernel"

    @property
    def total_cpu_s(self) -> float:
        return self.useful_cpu_s + self.wasted_cpu_s + self.background_cpu_s

    @property
    def wasted_work_ratio(self) -> float:
        if self.total_cpu_s == 0:
            return 0.0
        return (self.wasted_cpu_s + self.background_cpu_s) / self.total_cpu_s

    @property
    def write_fraction(self) -> float:
        if self.pages_inherited == 0:
            return 0.0
        return self.pages_written / self.pages_inherited

    @classmethod
    def from_kernel(cls, kernel: "Kernel", obs=None) -> "SpeculationReport":
        """Build the report for a finished kernel run.

        With ``obs`` (the :class:`~repro.obs.Observability` the kernel
        ran under), CPU accounting and the commit breakdown come from
        the recorded spans; without it, from the kernel's own counters.
        Either way the memory quantities come from the machine's
        :class:`~repro.memory.stats.MemoryStats`, so span-derived ratios
        can be checked against counter-derived ones.
        """
        report = cls(wall_s=kernel.now, cpus=kernel.cpus)
        stats = kernel.stats
        report.pages_inherited = stats.pte_copies
        report.pages_written = stats.cow_faults
        report.faults_injected = len(kernel.faults_injected)
        if kernel.journal is not None:
            report.journal_records = kernel.journal.records_since_snapshot()

        tracer = getattr(obs, "tracer", None)
        world_spans = []
        if tracer is not None:
            world_spans = [s for s in tracer.spans if s.cat == "world" and s.kind == "span"]
        if world_spans:
            report.source = "spans"
            for span in world_spans:
                cpu = float(span.attrs.get("cpu_s", 0.0))
                disposition = span.disposition or "speculative"
                report.worlds[disposition] = report.worlds.get(disposition, 0) + 1
                if span.attrs.get("background"):
                    report.background_cpu_s += cpu
                elif disposition in ("eliminated", "aborted"):
                    report.wasted_cpu_s += cpu
                else:  # committed, or still speculative: assume useful
                    report.useful_cpu_s += cpu
            for span in tracer.spans:
                if span.cat != "alt-block" or span.kind != "span":
                    continue
                for key in ("response_s", "c_best_s", "setup_s", "elimination_s", "cow_s"):
                    report.commit[key] = report.commit.get(key, 0.0) + float(
                        span.attrs.get(key, 0.0)
                    )
                report.commit["blocks"] = report.commit.get("blocks", 0.0) + 1
        else:
            util = kernel.utilization_report()
            report.useful_cpu_s = util.useful_cpu_s
            report.wasted_cpu_s = util.wasted_cpu_s
            report.background_cpu_s = util.background_cpu_s
            for world in kernel.worlds.values():
                if world.name.startswith("reaper-"):
                    key = "background"
                elif world.state.name == "DONE":
                    key = "committed"
                elif world.state.name == "ABORTED":
                    key = "aborted"
                elif not world.alive:
                    key = "eliminated"
                else:
                    key = "speculative"
                report.worlds[key] = report.worlds.get(key, 0) + 1
            for group in kernel.groups.values():
                if group.committed_at is None:
                    continue
                resumed = group.parent_resumed_at or group.committed_at
                report.commit["response_s"] = report.commit.get("response_s", 0.0) + (
                    resumed - group.issued_at
                )
                report.commit["c_best_s"] = report.commit.get("c_best_s", 0.0) + (
                    group.committed_at - group.spawned_at
                )
                report.commit["setup_s"] = report.commit.get("setup_s", 0.0) + group.overhead.setup_s
                report.commit["elimination_s"] = (
                    report.commit.get("elimination_s", 0.0) + group.overhead.completion_s
                )
                report.commit["cow_s"] = report.commit.get("cow_s", 0.0) + group.overhead.runtime_s
                report.commit["blocks"] = report.commit.get("blocks", 0.0) + 1
        return report

    def to_dict(self) -> dict[str, Any]:
        return {
            "wall_s": self.wall_s,
            "cpus": self.cpus,
            "useful_cpu_s": self.useful_cpu_s,
            "wasted_cpu_s": self.wasted_cpu_s,
            "background_cpu_s": self.background_cpu_s,
            "wasted_work_ratio": self.wasted_work_ratio,
            "worlds": dict(self.worlds),
            "pages_inherited": self.pages_inherited,
            "pages_written": self.pages_written,
            "write_fraction": self.write_fraction,
            "commit": dict(self.commit),
            "journal_records": self.journal_records,
            "faults_injected": self.faults_injected,
            "source": self.source,
        }

    def render(self) -> str:
        lines = [
            f"SpeculationReport (from {self.source})",
            f"  wall {self.wall_s:.4f}s on {self.cpus} cpus; "
            f"cpu useful {self.useful_cpu_s:.4f}s, wasted {self.wasted_cpu_s:.4f}s, "
            f"background {self.background_cpu_s:.4f}s",
            f"  wasted-work ratio {self.wasted_work_ratio:.3f}",
            f"  write fraction {self.write_fraction:.3f} "
            f"({self.pages_written} COW pages / {self.pages_inherited} inherited ptes)",
            "  worlds: " + (
                ", ".join(f"{k}={v}" for k, v in sorted(self.worlds.items())) or "none"
            ),
        ]
        if self.commit:
            n = int(self.commit.get("blocks", 0)) or 1
            lines.append(
                "  commit latency (mean over "
                f"{int(self.commit.get('blocks', 0))} blocks): "
                f"response {self.commit.get('response_s', 0.0) / n:.4f}s = "
                f"tau(C_best) {self.commit.get('c_best_s', 0.0) / n:.4f}s "
                f"+ fork {self.commit.get('setup_s', 0.0) / n:.4f}s "
                f"+ elimination {self.commit.get('elimination_s', 0.0) / n:.4f}s "
                f"+ cow {self.commit.get('cow_s', 0.0) / n:.4f}s"
            )
        if self.journal_records:
            lines.append(f"  journal records: {self.journal_records}")
        if self.faults_injected:
            lines.append(f"  faults injected: {self.faults_injected}")
        return "\n".join(lines)
