"""Ablation: guard placement (paper section 2.2, Figure 1 text).

"The GUARDs can be executed serially before spawning the alternatives
(thus improving throughput at the expense of response time); in the
child process; at the synchronization point; or at any combination of
these places, for redundancy."

The bench runs a block where half the alternatives are doomed (their
guards reject) under each placement and reports the throughput side
(CPU-seconds consumed, speculation waste) against the response side —
using the kernel's utilization report.
"""

import pytest

from _harness import report, table
from repro.core import Alternative, Guard, run_alternatives_sim
from repro.core.alternative import GuardPlacement

N_GOOD = 2
N_DOOMED = 4
WORK_S = 2.0


def _build(placement: GuardPlacement):
    alternatives = []
    for i in range(N_GOOD):
        alternatives.append(
            Alternative(
                lambda ws, _i=i: f"good{_i}",
                name=f"good{i}",
                sim_cost=WORK_S + 0.1 * i,
                guard=Guard(check=lambda ws: True, accept=lambda ws, v: True,
                            placement=placement),
            )
        )
    for i in range(N_DOOMED):
        alternatives.append(
            Alternative(
                lambda ws, _i=i: f"doomed{_i}",
                name=f"doomed{i}",
                sim_cost=WORK_S,
                guard=Guard(check=lambda ws: False, accept=lambda ws, v: False,
                            placement=placement),
            )
        )
    return alternatives


def run_placement(placement: GuardPlacement):
    outcome, kernel = run_alternatives_sim(
        _build(placement), cpus=2  # contended: wasted work hurts response too
    )
    util = kernel.utilization_report()
    return outcome, util


def generate():
    rows = []
    for placement, label in [
        (GuardPlacement.BEFORE_SPAWN, "before-spawn"),
        (GuardPlacement.IN_CHILD, "in-child"),
        (GuardPlacement.AT_SYNC, "at-sync"),
    ]:
        outcome, util = run_placement(placement)
        rows.append(
            (
                label,
                outcome.value,
                outcome.elapsed_s,
                util.total_cpu_s,
                util.speculation_waste,
            )
        )
    return rows


def placement_text(rows):
    text = table(
        ["placement", "winner", "response (s)", "CPU consumed (s)", "waste frac"],
        rows,
    )
    return text + (
        f"\n\n({N_GOOD} viable + {N_DOOMED} doomed alternatives of "
        f"{WORK_S} s each, 2 CPUs)"
    )


def test_guard_placement_ablation(benchmark):
    rows = benchmark.pedantic(generate, iterations=1, rounds=1)
    report("ablation_guard_placement", placement_text(rows))
    by = {r[0]: r for r in rows}
    # all placements select a viable alternative
    assert all(str(r[1]).startswith("good") for r in rows)
    # before-spawn never runs the doomed work: least CPU consumed
    assert by["before-spawn"][3] < by["in-child"][3]
    assert by["before-spawn"][3] < by["at-sync"][3]
    # entry checks in the child stop doomed work immediately, so in-child
    # consumes no more than at-sync (which burns the full doomed cost)
    assert by["in-child"][3] <= by["at-sync"][3]
    # under CPU contention, not spawning the doomed work also gives the
    # best response time
    assert by["before-spawn"][2] <= by["in-child"][2] + 1e-9
    # at-sync wastes the largest fraction of consumed CPU on speculation
    assert by["at-sync"][4] >= by["in-child"][4]


def test_uncontended_response_equivalence(benchmark):
    """With one CPU per world, placements differ in throughput only."""

    def run():
        out = {}
        for placement in (GuardPlacement.BEFORE_SPAWN, GuardPlacement.AT_SYNC):
            outcome, kernel = run_alternatives_sim(
                _build(placement), cpus=N_GOOD + N_DOOMED
            )
            out[placement] = (outcome.elapsed_s, kernel.utilization_report().total_cpu_s)
        return out

    out = benchmark.pedantic(run, iterations=1, rounds=1)
    resp_pre, cpu_pre = out[GuardPlacement.BEFORE_SPAWN]
    resp_sync, cpu_sync = out[GuardPlacement.AT_SYNC]
    assert resp_pre == pytest.approx(resp_sync, rel=0.02)
    assert cpu_pre < cpu_sync  # the throughput gap remains


if __name__ == "__main__":
    for row in generate():
        print(row)
