"""Tests for the metrics registry: kinds, labels, strictness, threads."""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MAX_SERIES,
    OVERFLOW_LABEL,
    Counter,
    DuplicateMetricError,
    FuncGauge,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    bind_attr_gauges,
)


# -- counters / gauges -------------------------------------------------------
def test_counter_counts_and_totals():
    c = Counter("c", labelnames=("site",))
    c.inc(site="a")
    c.inc(2.0, site="a")
    c.inc(site="b")
    assert c.value(site="a") == 3.0
    assert c.value(site="b") == 1.0
    assert c.total() == 4.0


def test_counter_rejects_decrease():
    c = Counter("c")
    with pytest.raises(MetricError):
        c.inc(-1.0)


def test_counter_label_cardinality_enforced():
    c = Counter("c", labelnames=("site", "kind"))
    with pytest.raises(MetricError):
        c.inc(site="a")  # missing "kind"
    with pytest.raises(MetricError):
        c.inc(site="a", kind="x", extra="nope")


def test_gauge_set_inc_dec():
    g = Gauge("g")
    g.set(5.0)
    g.inc(2.0)
    g.dec(4.0)
    assert g.value() == 3.0


def test_func_gauge_reads_live_value():
    box = {"v": 1.0}
    g = FuncGauge("fg", lambda: box["v"])
    assert g.value() == 1.0
    box["v"] = 7.0
    assert g.samples() == [{"labels": {}, "value": 7.0}]


def test_invalid_metric_name_rejected():
    with pytest.raises(MetricError):
        Counter("not a name")


# -- histograms --------------------------------------------------------------
def test_histogram_bucket_edges():
    h = Histogram("h", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.1, 0.5, 1.0, 5.0, 100.0):
        h.observe(v)
    # boundary values land in the bucket whose upper edge they equal
    assert h.bucket_counts() == [2, 2, 1, 1]
    assert h.count() == 6
    assert h.sum() == pytest.approx(106.65)


def test_histogram_rejects_bad_edges():
    with pytest.raises(MetricError):
        Histogram("h", buckets=())
    with pytest.raises(MetricError):
        Histogram("h", buckets=(1.0, 1.0))
    with pytest.raises(MetricError):
        Histogram("h", buckets=(2.0, 1.0))


def test_default_buckets_are_increasing():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    Histogram("h")  # constructs without raising


# -- registry strictness -----------------------------------------------------
def test_duplicate_registration_raises():
    reg = MetricsRegistry()
    reg.counter("m")
    with pytest.raises(DuplicateMetricError):
        reg.gauge("m")
    with pytest.raises(DuplicateMetricError):
        reg.register(Counter("m"))


def test_get_or_create_requires_matching_signature():
    reg = MetricsRegistry()
    c = reg.counter("m", labelnames=("a",))
    assert reg.counter("m", labelnames=("a",)) is c
    with pytest.raises(DuplicateMetricError):
        reg.counter("m", labelnames=("a", "b"))
    with pytest.raises(DuplicateMetricError):
        reg.histogram("m")


def test_gauge_fn_rebinds_existing_shim():
    reg = MetricsRegistry()
    g1 = reg.gauge_fn("shim", lambda: 1.0)
    g2 = reg.gauge_fn("shim", lambda: 2.0)
    assert g1 is g2
    assert g1.value() == 2.0
    # rebinding applies to FuncGauges only
    reg.counter("plain")
    with pytest.raises(DuplicateMetricError):
        reg.gauge_fn("plain", lambda: 0.0)


def test_registry_introspection():
    reg = MetricsRegistry()
    reg.counter("a")
    reg.gauge("b")
    assert "a" in reg and "b" in reg and "c" not in reg
    assert reg.names() == ["a", "b"]
    assert len(reg) == 2
    assert [d["name"] for d in reg.collect()] == ["a", "b"]


def test_snapshot_is_flat_and_labeled():
    reg = MetricsRegistry()
    reg.counter("c", labelnames=("k",)).inc(k="x")
    reg.gauge("g").set(2.5)
    snap = reg.snapshot()
    assert snap["c{k=x}"] == 1.0
    assert snap["g"] == 2.5


def test_bind_attr_gauges_absorbs_memory_stats():
    from repro.memory.stats import MemoryStats

    reg = MetricsRegistry()
    stats = MemoryStats()
    bind_attr_gauges(reg, stats, ("cow_faults", "forks"), prefix="mw_mem")
    stats.cow_faults = 11
    stats.forks = 3
    snap = reg.snapshot()
    assert snap["mw_mem_cow_faults"] == 11.0
    assert snap["mw_mem_forks"] == 3.0


def test_bind_attr_gauges_fails_fast_on_typo():
    reg = MetricsRegistry()
    with pytest.raises(AttributeError):
        bind_attr_gauges(reg, object(), ("nope",), prefix="x")


# -- series cap ---------------------------------------------------------------
def test_per_request_unique_alt_names_stay_bounded():
    """``mw_serve_alt_*{alt}`` under names unique per request (what
    ``mw-e2e``'s generator produces): the series count stops at the cap,
    overflow lands in ``other``, and no observation is lost."""
    from repro.obs import Observability
    from repro.serve import AlternativeStats

    obs = Observability()
    stats = AlternativeStats(obs=obs)
    n = 10 * MAX_SERIES
    for i in range(n):
        stats.observe(f"op{i}.0", won=bool(i % 2), latency_s=0.01)
        stats.observe("steady", won=True, latency_s=0.01)  # seen before the cap
    reg = obs.registry
    attempts, wins, latency = (
        reg.get(f"mw_serve_alt_{name}")
        for name in ("attempts_total", "wins_total", "latency_seconds")
    )
    for metric in (attempts, wins, latency):
        assert len(metric.samples()) <= MAX_SERIES + 1
    # totals conserved: overflow increments land in ``other``
    assert attempts.total() == 2 * n
    assert wins.total() == n // 2 + n
    assert sum(s["count"] for s in latency.samples()) == 2 * n
    # a series that existed before the cap keeps counting under its own name
    assert attempts.value(alt="steady") == n
    assert attempts.value(alt=OVERFLOW_LABEL) == n - (MAX_SERIES - 1)
    assert attempts.value(alt=f"op{n - 1}.0") == 0.0
    dropped = reg.get("mw_obs_series_dropped")
    assert dropped.value(metric="mw_serve_alt_attempts_total") == n - (MAX_SERIES - 1)
    assert dropped.value(metric="mw_serve_alt_latency_seconds") == n - (MAX_SERIES - 1)


def test_series_cap_keeps_counters_monotonic_and_gauges_bounded():
    reg = MetricsRegistry()
    c = reg.counter("c", labelnames=("a", "b"))
    g = reg.gauge("g", labelnames=("a",))
    seen = 0.0
    for i in range(MAX_SERIES + 50):
        c.inc(a=i, b="x")
        g.set(float(i), a=i)
        assert c.total() > seen  # never goes down when a series is refused
        seen = c.total()
    assert c.value(a=OVERFLOW_LABEL, b=OVERFLOW_LABEL) == 50
    assert len(g.samples()) == MAX_SERIES + 1
    assert "mw_obs_series_dropped" in reg
    # an unregistered metric caps too; there is just nobody to tell
    lone = Counter("lone", labelnames=("k",))
    for i in range(MAX_SERIES + 3):
        lone.inc(k=i)
    assert lone.value(k=OVERFLOW_LABEL) == 3 and lone.total() == MAX_SERIES + 3


# -- thread safety -----------------------------------------------------------
def test_counter_thread_safety():
    reg = MetricsRegistry()
    c = reg.counter("c", labelnames=("t",))
    h = reg.histogram("h", buckets=(0.5, 1.0))

    def worker(tag):
        for _ in range(2000):
            c.inc(t=tag)
            h.observe(0.25)

    threads = [threading.Thread(target=worker, args=(str(i % 2),)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.total() == 16000
    assert h.count() == 16000


def test_metrics_under_thread_backend():
    """The thread backend's workers increment one shared registry."""
    from repro.core.worlds import run_alternatives
    from repro.obs import Observability

    obs = Observability()

    def make(i):
        def alt(ws):
            obs.registry.counter("from_workers").inc()
            return i

        alt.__name__ = f"alt{i}"
        return alt

    out = run_alternatives(
        [make(i) for i in range(6)], backend="thread", obs=obs
    )
    assert out.winner is not None
    assert obs.registry.get("from_workers").total() >= 1
    assert obs.registry.get("mw_backend_blocks_total").value(
        backend="thread", result="committed"
    ) == 1
