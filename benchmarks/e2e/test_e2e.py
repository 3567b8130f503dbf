"""Tests of the benchmark's own arithmetic and of its output's shape.

Run with ``python -m pytest benchmarks/e2e -q``. The one end-to-end test
uses ``--quick`` windows: it checks names and checks, never numbers.
"""

import itertools
import json
import os
import re
import subprocess
import sys

import pytest

import run  # noqa: F401 - puts src/ and this directory on sys.path
import gen
import ledger
from ledger import Span

MANIFEST = ledger.load_manifest()
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def take(workload, seed, n):
    return list(itertools.islice(gen.generate(workload, seed), n))


# -- the seeded generator ------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    first = gen.input_bytes(take(workload, 7, 500))
    assert first == gen.input_bytes(take(workload, 7, 500))
    assert first != gen.input_bytes(take(workload, 8, 500))


def test_best_position_is_uniform_with_capped_runs():
    ops = take("serve_sat", 3, 6000)
    share = [sum(op.best == pos for op in ops) / len(ops) for pos in range(gen.N_ALTS)]
    assert all(0.30 < s < 0.37 for s in share)
    longest = max(len(list(group)) for _, group in itertools.groupby(op.best for op in ops))
    assert longest <= gen.MAX_RUN
    for op in ops[:50]:
        assert op.costs_ms[op.best] == gen.BEST_MS
        assert sorted(op.costs_ms) == [gen.BEST_MS, gen.SLOW_MS, gen.SLOW_MS]
        assert len(set(op.names)) == gen.N_ALTS


def test_names_carry_no_signal_across_ops():
    ops = take("serve_paced", 1, 100)
    assert len({name for op in ops for name in op.names}) == 100 * gen.N_ALTS


def test_cluster_tenants_split_evenly_over_the_ring():
    from repro.cluster import HashRing

    ring = HashRing(range(gen.CLUSTER_SHARDS))
    for seed in (1, 2, 3):
        tenants = {op.tenant for op in take("cluster_remote", seed, 2000)}
        assert len(tenants) == gen.TENANTS["cluster_remote"]
        homes = [ring.route(t) for t in tenants]
        assert homes.count(0) == homes.count(1)


def test_bodies_return_name_and_index_and_stamp_themselves():
    op = take("block_fork", 1, 1)[0]
    ws = dict(op.initial)
    assert gen.BODIES[op.best](ws) == (op.name(op.best), op.index)
    assert ws["t0"] <= ws["t1"]
    assert len(ws["pages"]) == gen.PAGES and len(ws["pages"][0]) == gen.PAGE_BYTES


# -- percentiles ---------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert ledger.percentile(values, 50) == 50
    assert ledger.percentile(values, 95) == 95
    assert ledger.percentile(values, 100) == 100
    assert ledger.percentile([3.0], 95) == 3.0
    assert ledger.percentile([], 95) == 0.0


@pytest.mark.parametrize("n, pct, beyond", [(200, 95, 10), (199, 95, 9), (1000, 99, 10), (10, 50, 5)])
def test_samples_beyond(n, pct, beyond):
    assert ledger.samples_beyond(n, pct) == beyond


@pytest.mark.parametrize("n, highest", [(15, 50.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_highest_percentile_needs_ten_samples_beyond(n, highest):
    assert ledger.highest_percentile(n) == highest


def test_summarize_matches_statistics_quantiles():
    s = ledger.summarize([10.0, 11.0, 12.0, 13.0, 14.0])
    assert s["median"] == 12.0
    assert (s["q1"], s["q3"]) == (10.5, 13.5)
    assert s["iqr_share"] == pytest.approx(0.25)
    assert s["max_spread"] == pytest.approx(4 / 12)


# -- span self-time --------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, 0, None, "op", 0.0, 10.0),
        Span(0, 1, 0, "a", 1.0, 4.0),
        Span(0, 2, 0, "b", 3.0, 6.0),     # overlaps a: [1, 6] counts once
        Span(0, 3, 0, "c", 8.0, 12.0),    # clipped to the parent's end
        Span(0, 4, 2, "b.inner", 3.5, 4.5),
    ]
    self_time = ledger.self_times(spans)
    assert self_time[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_time[1] == pytest.approx(3.0)
    assert self_time[2] == pytest.approx(2.0)
    assert self_time[4] == pytest.approx(1.0)


def test_span_tree_skips_spans_with_a_missing_stamp():
    tree = ledger.SpanTree(5)
    root = tree.add("op", 0.0, 1.0)
    assert tree.add("never.happened", None, 0.5, root) is None
    assert tree.add("did", 0.2, 0.5, root) == 1
    assert [s.name for s in tree.spans] == ["op", "did"]
    assert all(s.trace == 5 for s in tree.spans)


# -- the manifest and what a run writes ------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_manifest_meets_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(MANIFEST["workloads"]) <= 8 and 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in MANIFEST[group]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_every_per_layer_metric_has_a_prediction():
    with open(os.path.join(ledger.HERE, "moves.json"), encoding="utf-8") as fh:
        moves = json.load(fh)
    assert list(moves) == [m["name"] for m in MANIFEST["per_layer"]]


def test_fill_rejects_unlisted_and_unmeasured_metrics():
    with pytest.raises(KeyError):
        ledger.fill(MANIFEST, "per_layer", {"serve.no_such_ms": 1.0})
    with pytest.raises(KeyError):
        ledger.fill(MANIFEST, "end_to_end", {"throughput_rps": 1.0})
    filled = ledger.fill(MANIFEST, "per_layer", {"core.ro_p50": 0.3})
    assert filled["core.ro_p50"] == {"value": 0.3, "unit": "ratio"}
    assert filled["cluster.ring.route_us"]["value"] == 0.0


def test_quick_set_writes_the_names_the_manifest_lists(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ledger.HERE, "run.py"), "--quick", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(tmp_path / "latest.json", encoding="utf-8") as fh:
        latest = json.load(fh)
    assert latest["comparable"] is False
    assert list(latest["workloads"]) == WORKLOADS
    for name, w in latest["workloads"].items():
        assert w["correct"] and w["failed"] == 0 and w["failed_share"] == 0.0, w["breaches"]
        assert list(w["end_to_end"]) == [m["name"] for m in MANIFEST["end_to_end"]]
        assert list(w["per_layer"]) == [m["name"] for m in MANIFEST["per_layer"]]
        assert all(m["value"] > 0 for m in w["end_to_end"].values())
    with open(tmp_path / "latest.spans.jsonl", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert {s["workload"] for s in spans} == set(WORKLOADS)
    assert all(s["parent"] is None for s in spans if s["name"] == "op")
    # every line a user reads names a workload, a metric, a value and a unit
    for line in proc.stdout.splitlines():
        workload, metric, value, *_ = line.split()
        assert workload in WORKLOADS
        if metric not in ("BREACH", "disturbed"):
            float(value)
