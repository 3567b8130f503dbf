"""Integration tests for the telemetry plane across the layers.

Covers the acceptance criteria: a traced run yields a Chrome trace with
one lane per world and eliminated worlds visibly terminated, and a
SpeculationReport whose span-derived quantities agree with the kernel's
own counters within 1%.
"""

import pytest

from repro.core.alternative import Alternative
from repro.core.worlds import run_alternatives, run_alternatives_sim
from repro.faults.plan import FaultKind, FaultPlan
from repro.kernel import Kernel
from repro.obs import Observability
from repro.obs.export import (
    SpeculationReport,
    chrome_trace_events,
    validate_chrome_trace,
    validate_jsonl,
    validate_metrics,
    write_chrome_trace,
    write_jsonl,
)


def _alts(costs=(3.0, 1.0, 2.0)):
    alternatives = []
    for i, cost in enumerate(costs):
        def body(ws, _i=i):
            ws["winner"] = _i
            return _i

        alternatives.append(
            Alternative(body, name=f"method_{i}", sim_cost=cost)
        )
    return alternatives


def traced_sim_run(obs, **kwargs):
    outcome, kernel = run_alternatives_sim(_alts(), cpus=4, obs=obs, **kwargs)
    obs.finalize(kernel.now)
    return outcome, kernel


# -- world spans -------------------------------------------------------------
def test_world_spans_one_lane_per_world():
    obs = Observability()
    outcome, kernel = traced_sim_run(obs)
    assert outcome.value == 1  # fastest sim_cost wins

    world_spans = [
        s for s in obs.tracer.spans if s.cat == "world" and s.kind == "span"
    ]
    # driver + 3 alternatives + reaper
    assert len(world_spans) == len(kernel.worlds)
    # one lane per world: track is the wid, every wid distinct, named
    assert all(s.track == s.wid for s in world_spans)
    wids = [s.wid for s in world_spans]
    assert len(set(wids)) == len(wids)
    assert all(wid in obs.tracer.track_names for wid in wids)
    # lineage chains run root -> leaf
    children = [s for s in world_spans if len(s.lineage) > 1]
    assert children and all(s.lineage[-1] == s.wid for s in children)

    by_disposition = {}
    for s in world_spans:
        by_disposition.setdefault(s.disposition, []).append(s)
    assert len(by_disposition["eliminated"]) == 2
    # the losers' lanes are cut short at the commit, before the run ends
    wall = max(s.end for s in world_spans)
    assert all(s.end < wall for s in by_disposition["eliminated"])


def test_alt_block_span_and_metrics():
    obs = Observability()
    traced_sim_run(obs)
    (block,) = [s for s in obs.tracer.spans if s.cat == "alt-block"]
    assert block.disposition == "committed"
    assert block.attrs["n_eliminated"] == 2
    assert block.attrs["response_s"] >= block.attrs["c_best_s"] > 0
    reg = obs.registry
    assert reg.get("mw_alt_blocks_total").value(result="committed") == 1
    assert reg.get("mw_worlds_total").value(disposition="eliminated") == 2
    assert reg.get("mw_commit_response_s").count() == 1


# -- acceptance: span-derived report vs kernel counters ----------------------
def test_speculation_report_agrees_with_kernel_counters():
    obs = Observability()
    _, kernel = traced_sim_run(obs)

    from_spans = SpeculationReport.from_kernel(kernel, obs)
    from_counters = SpeculationReport.from_kernel(kernel, None)
    assert from_spans.source == "spans"
    assert from_counters.source == "kernel"

    # wasted-work ratio from spans within 1% of the kernel's own counters
    assert from_spans.wasted_work_ratio == pytest.approx(
        from_counters.wasted_work_ratio, rel=0.01
    )
    assert from_spans.total_cpu_s == pytest.approx(
        kernel.utilization_report().total_cpu_s, rel=0.01
    )
    # write fraction is counter-derived in both cases: exact agreement
    stats = kernel.stats
    expected_wf = stats.cow_faults / stats.pte_copies if stats.pte_copies else 0.0
    assert from_spans.write_fraction == from_counters.write_fraction == expected_wf
    # and both agree with the live mw_mem_* gauges
    snap = obs.registry.snapshot()
    assert snap["mw_mem_cow_faults"] == stats.cow_faults
    assert snap["mw_mem_pte_copies"] == stats.pte_copies


# -- acceptance: traced Table I run loads as a Chrome trace ------------------
def test_table_one_row_traced_chrome_trace(tmp_path):
    from apps.poly.rootfind.parallel import (
        ParallelRootfinder,
        default_table_polynomial,
    )

    obs = Observability()
    finder = ParallelRootfinder(default_table_polynomial(degree=6))
    row = finder.table_one_row(3, obs=obs)
    assert row.procs == 3
    obs.finalize()

    world_spans = [
        s for s in obs.tracer.spans if s.cat == "world" and s.kind == "span"
    ]
    assert world_spans

    trace_path = str(tmp_path / "table1.trace.json")
    jsonl_path = str(tmp_path / "table1.spans.jsonl")
    assert write_chrome_trace(obs.tracer, trace_path) > 0
    assert validate_chrome_trace(trace_path) > 0
    assert write_jsonl(obs.tracer, jsonl_path) == len(obs.tracer.spans)
    assert validate_jsonl(jsonl_path) == len(obs.tracer.spans)
    assert validate_metrics(obs.registry) > 0

    events = chrome_trace_events(obs.tracer)
    lanes = [e for e in events if e["ph"] == "X" and "wid" in e["args"]]
    # one lane per world
    assert {e["tid"] for e in lanes} == {s.wid for s in world_spans}
    # eliminated/aborted worlds are visibly terminated: their lanes end
    # strictly before the surviving driver's lane does
    wall_us = max(e["ts"] + e["dur"] for e in lanes)
    losers = [
        e for e in lanes
        if e["args"]["disposition"] in ("eliminated", "aborted")
    ]
    assert losers
    assert all(e["ts"] + e["dur"] < wall_us for e in losers)


# -- fault-plane correlation -------------------------------------------------
def test_fault_injections_correlate_with_annotations():
    plan = FaultPlan(seed=3, rates={FaultKind.STALL: 1.0}, stall_s=0.5)
    obs = Observability()
    kernel = Kernel(cpus=1, fault_plan=plan, obs=obs)

    def program(ctx):
        yield ctx.compute(0.1)
        yield ctx.compute(0.1)
        return "done"

    kernel.spawn(program, name="main")
    kernel.run()
    obs.finalize(kernel.now)

    n = len(kernel.faults_injected)
    assert n == 2  # rate 1.0: every costed op stalls
    # every injection landed in the plan's correlation log...
    assert len(plan.injections) == n
    assert all(
        rec["site"] == "compute" and rec["kind"] == "stall"
        for rec in plan.injections
    )
    # ...in the metrics plane...
    counter = obs.registry.get("mw_faults_injected_total")
    assert counter.value(site="compute", kind="stall") == n
    # ...and as cat="fault" annotation instants on the world's track
    instants = [
        s for s in obs.tracer.spans
        if s.cat == "fault" and s.kind == "instant"
    ]
    assert len(instants) == n
    assert all(s.name == "fault:stall" for s in instants)
    # the stall really happened: 2 ops + 2 stalls of virtual time
    assert kernel.now == pytest.approx(0.2 + 2 * 0.5, rel=0.01)


# -- journal / network / lease spans -----------------------------------------
def test_journal_transaction_spans_and_counters():
    from repro.journal.wal import CommitJournal

    obs = Observability()
    journal = CommitJournal(obs=obs)
    seq = journal.begin("block", winner=1)
    journal.seal(seq)
    journal.mark_applied(seq)
    seq2 = journal.begin("block")
    journal.abort(seq2, reason="no winner")

    spans = [s for s in obs.tracer.spans if s.cat == "journal"]
    assert [(s.name, s.disposition) for s in spans] == [
        ("txn:block", "committed"),
        ("txn:block", "aborted"),
    ]
    c = obs.registry.get("mw_journal_txns_total")
    assert c.value(kind="block", phase="intent") == 2
    assert c.value(kind="block", phase="seal") == 1
    assert c.value(kind="block", phase="applied") == 1
    assert c.value(kind="block", phase="abort") == 1


def test_link_transfer_spans_and_drop_correlation():
    from netmodel.faults import NetFaultPlan, TransferDropped
    from netmodel.netsim import NetworkProfile, SimulatedLink

    obs = Observability()
    plan = NetFaultPlan.lossy(seed=0, rate=1.0)
    # the link wires plan -> obs itself when given both
    link = SimulatedLink(
        NetworkProfile("lan", 0.001, 1e6), fault_plan=plan, link_id=7, obs=obs
    )
    with pytest.raises(TransferDropped):
        link.transfer(4096)

    c = obs.registry.get("mw_net_transfers_total")
    assert c.value(link="7", result="dropped") == 1
    (span,) = [s for s in obs.tracer.spans if s.cat == "net"]
    assert span.disposition == "aborted"
    assert span.attrs["fault"] == "transfer-drop"
    assert span.track == "link:7"
    # the drop is correlated on the same track as the transfer span
    (fault,) = [s for s in obs.tracer.spans if s.cat == "fault"]
    assert fault.track == "link:7"
    assert obs.registry.get("mw_faults_injected_total").value(
        site="link", kind="transfer-drop"
    ) == 1


def test_lease_lifecycle_span():
    from netmodel.lease import RemoteWorldLease

    obs = Observability()
    lease = RemoteWorldLease(lease_id=4, node_id=2, obs=obs)
    lease.miss(0.1, reason="beat lost")
    lease.renew(0.2)
    lease.complete(0.3)

    (span,) = [
        s for s in obs.tracer.spans
        if s.cat == "distrib" and s.kind == "span"
    ]
    assert span.name == "lease:4"
    assert span.disposition == "committed"
    assert span.end == pytest.approx(0.3)
    assert span.attrs["beats_ok"] == 1
    # suspicion and recovery land as instants on the lease's track
    instants = [s.name for s in obs.tracer.spans if s.kind == "instant"]
    assert instants == ["lease:suspect", "lease:recovered"]


def test_sequential_backend_block_span():
    obs = Observability()

    def ok(ws):
        return 42

    out = run_alternatives([ok], backend="sequential", obs=obs)
    assert out.winner is not None
    blocks = [s for s in obs.tracer.spans if s.cat == "alt-block"]
    assert len(blocks) == 1 and blocks[0].attrs["backend"] == "sequential"
    assert obs.registry.get("mw_backend_blocks_total").value(
        backend="sequential", result="committed"
    ) == 1
