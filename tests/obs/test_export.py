"""Tests for the exporters and their schema validators."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.obs.export import (
    SCHEMA_VERSION,
    SchemaError,
    chrome_trace_events,
    validate_chrome_trace,
    validate_jsonl,
    validate_metrics,
    write_chrome_trace,
    write_jsonl,
)


def sample_tracer():
    tracer = Tracer(clock=lambda: 0.0)
    tracer.set_track_name(1, "wid 1 · main")
    tracer.set_track_name(2, "wid 2 · alt")
    tracer.complete("main", 0.0, 3.0, cat="world", track=1, wid=1,
                    disposition="committed")
    tracer.complete("alt", 0.5, 1.5, cat="world", track=2, wid=2,
                    lineage=(1, 2), disposition="eliminated")
    tracer.instant("fault:msg-drop", cat="fault", track="faults", t=1.0)
    return tracer


def test_jsonl_roundtrip(tmp_path):
    path = str(tmp_path / "t.jsonl")
    n = write_jsonl(sample_tracer(), path)
    assert n == 3
    assert validate_jsonl(path) == 3
    with open(path) as fh:
        lines = [json.loads(l) for l in fh]
    assert lines[0]["type"] == "meta"
    assert lines[0]["schema"] == SCHEMA_VERSION
    assert lines[0]["tracks"]["1"] == "wid 1 · main"
    assert lines[2]["lineage"] == [1, 2]


def test_jsonl_validator_rejects_bad_lines(tmp_path):
    path = str(tmp_path / "bad.jsonl")

    def check(content, match):
        with open(path, "w") as fh:
            fh.write(content)
        with pytest.raises(SchemaError, match=match):
            validate_jsonl(path)

    check("not json\n", "not JSON")
    check('{"type": "span"}\n', "meta header")
    meta = json.dumps({"type": "meta", "schema": SCHEMA_VERSION}) + "\n"
    check(meta, "no spans")
    check(meta + '{"type": "mystery"}\n', "unknown line type")
    check(
        meta + '{"type": "span", "span_id": 1, "name": "x"}\n',
        "missing",
    )
    good = {
        "type": "span", "span_id": 1, "name": "x", "cat": "c",
        "kind": "span", "track": 0, "start": 2.0,
    }
    check(meta + json.dumps(dict(good, disposition="zombie")) + "\n",
          "bad disposition")
    check(meta + json.dumps(dict(good, end=1.0)) + "\n", "ends before")


def test_chrome_trace_one_lane_per_world(tmp_path):
    tracer = sample_tracer()
    events = chrome_trace_events(tracer)
    # integer tracks keep wid as tid -> one lane per world
    lanes = {e["tid"] for e in events if e["ph"] == "X"}
    assert lanes == {1, 2}
    names = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert names[1] == "wid 1 · main"
    # non-integer tracks allocate tids >= 1,000,000
    fault_events = [e for e in events if e["ph"] == "i"]
    assert fault_events and all(e["tid"] >= 1_000_000 for e in fault_events)
    # eliminated worlds are visibly terminated: dur ends the lane early
    alt = next(e for e in events if e["ph"] == "X" and e["args"].get("wid") == 2)
    assert alt["args"]["disposition"] == "eliminated"
    assert alt["ts"] + alt["dur"] < 3.0 * 1e6

    path = str(tmp_path / "t.trace.json")
    assert write_chrome_trace(tracer, path) == len(events)
    assert validate_chrome_trace(path) == 3


def test_chrome_validator_rejects_malformed(tmp_path):
    path = str(tmp_path / "bad.trace.json")

    def check(doc, match):
        with open(path, "w") as fh:
            if isinstance(doc, str):
                fh.write(doc)
            else:
                json.dump(doc, fh)
        with pytest.raises(SchemaError, match=match):
            validate_chrome_trace(path)

    check("nope", "not JSON")
    check({}, "no traceEvents")
    check({"traceEvents": [{"ph": "Z", "name": "x", "pid": 0, "tid": 0}]},
          "unknown phase")
    check({"traceEvents": [{"ph": "X", "pid": 0, "tid": 0}]}, "missing name")
    check({"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0}]},
          "needs ts")
    check(
        {"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 0, "tid": 0}
        ]},
        "metadata only",
    )


def test_validate_metrics_passes_and_counts():
    reg = MetricsRegistry()
    reg.counter("a").inc()
    reg.gauge("b").set(1.0)
    reg.histogram("c").observe(0.1)
    assert validate_metrics(reg) == 3


def test_validate_metrics_rejects_non_numeric_sample():
    reg = MetricsRegistry()
    reg.gauge("weird").set("NaN-ish")  # Gauge.set does not coerce
    with pytest.raises(SchemaError, match="non-numeric"):
        validate_metrics(reg)
