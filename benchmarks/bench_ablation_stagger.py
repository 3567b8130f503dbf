"""Ablation: staggered spare spawning in recovery blocks.

The pure race (stagger 0) gives the best response under faults but runs
every spare speculatively; pure sequential standby-spares (stagger >=
primary's duration) wastes nothing but pays failures in series. The
stagger knob sweeps the space between — this bench maps the frontier on
the simulation kernel.
"""

import pytest

from _harness import report, table
from apps.recovery import RecoveryBlock
from repro.core import run_alternatives_sim

PRIMARY_S = 1.0
SPARE_S = 1.0
STAGGERS = [0.0, 0.25, 0.5, 1.0, 2.0]


def _block():
    def primary(ws):
        if ws.get("inject_fault"):
            raise RuntimeError("fault")
        return "primary"

    def spare1(ws):
        return "spare1"

    def spare2(ws):
        return "spare2"

    return RecoveryBlock(lambda ws, v: True, primary, spare1, spare2)


def run_point(stagger: float, fault: bool):
    block = _block()
    outcome = run_alternatives_sim(
        block.as_alternatives(sim_costs=[PRIMARY_S, SPARE_S, SPARE_S],
                              stagger_s=stagger),
        initial={"inject_fault": fault},
        cpus=3,
    )
    result, kernel = outcome
    util = kernel.utilization_report()
    return result, util


def generate():
    rows = []
    for stagger in STAGGERS:
        healthy, util_h = run_point(stagger, fault=False)
        faulty, util_f = run_point(stagger, fault=True)
        rows.append(
            (
                stagger,
                healthy.elapsed_s,
                util_h.wasted_cpu_s,
                faulty.elapsed_s,
                util_f.wasted_cpu_s,
            )
        )
    return rows


def stagger_text(rows):
    text = table(
        ["stagger (s)", "healthy resp (s)", "healthy waste (s)",
         "faulty resp (s)", "faulty waste (s)"],
        rows,
    )
    return text + (
        "\n\n(primary 1.0 s + two 1.0 s spares; waste = CPU-seconds "
        "burned by eliminated worlds)"
    )


def test_stagger_frontier(benchmark):
    rows = benchmark.pedantic(generate, iterations=1, rounds=1)
    report("ablation_stagger", stagger_text(rows))
    by = {r[0]: r for r in rows}

    # healthy response is stagger-independent: the primary sets the pace
    for _, healthy_resp, _, _, _ in rows:
        assert healthy_resp == pytest.approx(PRIMARY_S, rel=0.05)

    # healthy waste falls monotonically with stagger and hits zero once
    # spares start after the primary finishes
    wastes = [r[2] for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(wastes, wastes[1:]))
    assert by[2.0][2] == pytest.approx(0.0, abs=1e-9)
    assert by[0.0][2] == pytest.approx(2 * PRIMARY_S, rel=0.1)

    # faulty response grows with stagger: fault cost = one stagger
    assert by[0.0][3] == pytest.approx(SPARE_S, rel=0.05)
    assert by[1.0][3] == pytest.approx(1.0 + SPARE_S, rel=0.05)
    assert by[2.0][3] == pytest.approx(2.0 + SPARE_S, rel=0.05)

    # the knob's promise: at stagger = primary duration, zero healthy
    # waste AND a fault costs one primary-duration, not a serial chain
    sweet = by[1.0]
    assert sweet[2] == pytest.approx(0.0, abs=0.05)
    assert sweet[3] < 2 * (PRIMARY_S + SPARE_S)


if __name__ == "__main__":
    for row in generate():
        print(row)
