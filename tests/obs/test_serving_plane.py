"""The serving stack's telemetry: one real plane over router, shards,
journals and a shard-host process — and the null plane under the same
requests when no plane is given.

Also run as CI's observability smoke beside the traced Figure 1 bench,
which covers only the sim kernel.
"""

import collections
import functools
import time

from repro.cluster import ClusterRouter, ClusterShard, RemoteShardClient
from repro.faults.plan import FaultKind, FaultPlan
from repro.journal import CommitJournal
from repro.obs import NULL_OBS, Observability
from repro.obs.export import (
    validate_chrome_trace,
    validate_jsonl,
    validate_metrics,
    write_chrome_trace,
    write_jsonl,
)
from repro.serve import (
    AdaptiveSpeculationPolicy,
    AdmissionQueue,
    AlternativeStats,
    SpeculationService,
    WorldBudget,
)

N_REQUESTS = 20
FAMILIES = ("mw_serve_", "mw_cluster_", "mw_journal_", "mw_transport_")


def val(ws, i=0):
    time.sleep(0.001)
    return i * 7


def record_kinds_by_request(journal):
    """Each request's journal records, as ``(txn kind, record type)`` pairs."""
    owner, kinds = {}, collections.defaultdict(list)
    for rec in journal.records():
        if rec["t"] == "intent":
            data = rec["data"]
            owner[rec["seq"]] = (rec["kind"], data.get("request", data.get("block")))
        if rec["seq"] in owner:
            kind, request = owner[rec["seq"]]
            kinds[request].append((kind, rec["t"]))
    return kinds


def serve(tmp_path, obs):
    """20 requests through a router over two journalled in-process shards
    and one shard-host process, every layer on ``obs``; returns the
    results and each request's journal record kinds, in submit order."""
    shards = [
        ClusterShard(
            sid, journal=CommitJournal(obs=obs), journal_admission=True, obs=obs,
        )
        for sid in range(2)
    ] + [RemoteShardClient(2, workdir=str(tmp_path), slots=2, workers=2, obs=obs)]
    router = ClusterRouter(shards, spill=False, obs=obs).start(detect=False)
    try:
        # tenants picked so that every shard serves some of the requests
        homes = collections.defaultdict(list)
        for tenant in (f"t{k}" for k in range(200)):
            homes[router.ring.route(tenant)].append(tenant)
        tenants = [homes[i % 3][(i // 3) % 2] for i in range(N_REQUESTS)]
        tickets = [
            router.submit(tenant, [functools.partial(val, i=i)], spec={"i": i})
            for i, tenant in enumerate(tenants)
        ]
        results = [t.result(timeout=30) for t in tickets]
    finally:
        router.stop()
    kinds = {}
    for shard in shards:
        kinds.update(record_kinds_by_request(shard.journal))
    return results, [kinds.get(r.seq) for r in results]


def test_one_real_plane_over_the_serving_stack(tmp_path):
    obs = Observability()
    results, kinds = serve(tmp_path / "traced", obs)
    assert all(r.committed for r in results), [(r.status, r.reason) for r in results]
    assert [r.value for r in results] == [i * 7 for i in range(N_REQUESTS)]
    assert {r.shard_id for r in results} == {0, 1, 2}

    chrome, jsonl = tmp_path / "run.trace.json", tmp_path / "run.jsonl"
    write_chrome_trace(obs.tracer, str(chrome))
    write_jsonl(obs.tracer, str(jsonl))
    assert validate_chrome_trace(str(chrome)) > 0
    assert validate_jsonl(str(jsonl)) > 0
    assert validate_metrics(obs.registry) > 0
    names = obs.registry.names()
    for family in FAMILIES:
        assert any(name.startswith(family) for name in names), (family, names)

    # the same requests with no plane: same values, same durable records
    bare_results, bare_kinds = serve(tmp_path / "bare", None)
    assert [r.value for r in bare_results] == [r.value for r in results]
    assert all(r.committed for r in bare_results)
    assert bare_kinds == kinds
    assert all(kinds), "every request left journal records"
    assert len(NULL_OBS.registry) == 0 and NULL_OBS.registry.collect() == []
    assert len(NULL_OBS.tracer) == 0 and NULL_OBS.tracer.spans == ()


def test_the_null_plane_leaves_a_watched_plan_with_its_real_plane():
    real = Observability()
    plan = FaultPlan(seed=1, rates={FaultKind.REQUEST_BURST: 1.0}, burst_n=2)
    real.watch_fault_plan(plan)
    with SpeculationService(WorldBudget(2), workers=1, fault_plan=plan) as svc:
        assert svc.obs is NULL_OBS
        assert svc.submit("storm", [lambda ws: 1]).result(timeout=10).committed
    injected = real.registry.get("mw_faults_injected_total")
    assert injected.value(site="serve", kind="request-burst") == 1
    assert len(NULL_OBS.registry) == 0


def test_a_component_moves_to_a_real_plane_and_never_back():
    """The service binds the components its caller built: one on the
    null plane moves to the service's real plane, and one on a real
    plane stays there whatever it is bound to next."""
    first, second = Observability(), Observability()
    budget, queue, stats = WorldBudget(2), AdmissionQueue(), AlternativeStats()
    components = (budget, queue, stats)
    assert all(c.obs is NULL_OBS for c in components)
    policy = AdaptiveSpeculationPolicy(stats=stats)
    SpeculationService(budget, queue=queue, policy=policy, obs=first)
    assert all(c.obs is first for c in components)
    for name in ("mw_serve_slots_in_use", "mw_serve_queue_depth",
                 "mw_serve_alt_wins_total"):
        assert name in first.registry, name
    for obs in (None, second):
        SpeculationService(budget, queue=queue, policy=policy, obs=obs)
        for component in components:
            component.bind_obs(obs)
        assert all(c.obs is first for c in components), obs
    assert not any(name.startswith("mw_serve_alt") for name in second.registry.names())


def test_a_failover_and_its_cause_share_the_tracer_timebase():
    """A seeded partition, the suspicion it raises and the takeover it
    starts are drawn on the plane's real-time timeline: every fault and
    cluster instant lies between the router's start and now, and each
    declared shard's misses come no later than its takeover span."""
    skew = [0.0]
    obs = Observability(clock=lambda: time.perf_counter() + skew[0])
    skew[0] = 100.0  # the plane has been up for 100 s when the router starts
    plan = FaultPlan(seed=8, rates={FaultKind.ROUTER_PARTITION: 0.4})
    shards = [ClusterShard(i, slots=1, workers=1, obs=obs) for i in range(3)]
    started = obs.tracer.now()
    router = ClusterRouter(shards, fault_plan=plan, obs=obs).start(detect=False)
    try:
        for _ in range(12):
            router.heartbeat_round()
    finally:
        router.stop()
    now = obs.tracer.now()

    instants = [
        s for s in obs.tracer.spans
        if s.kind == "instant" and s.cat in ("fault", "cluster")
    ]
    assert instants
    for s in instants:
        assert started <= s.start <= now, (s.name, s.attrs, started, s.start, now)
    takeovers = [s for s in obs.tracer.spans if s.name.startswith("takeover:shard:")]
    assert [(t.attrs["shard"], t.attrs["beat"], t.attrs["kind"]) for t in takeovers] == [
        (1, 3, "stale"), (0, 10, "stale"),
    ]
    for takeover in takeovers:
        assert takeover.attrs["reason"] == "3 consecutive misses (router partitioned)"
        misses = [s for s in instants if s.attrs.get("shard") == takeover.attrs["shard"]]
        assert {s.name for s in misses} == {"fault:router-partition", "shard:suspect"}
        assert all(s.attrs["beat"] <= takeover.attrs["beat"] for s in misses)
        assert max(s.start for s in misses) <= takeover.start
