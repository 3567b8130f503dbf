"""Ablation: scheduler quantum size (simulator fidelity check).

The kernel timeshares CPUs in quanta. A quantum much smaller than the
alternatives' runtimes approximates ideal processor sharing — the race's
winner under contention is the alternative with the least *work*, and it
finishes near (total outstanding work)/CPUs. A quantum comparable to the
runtimes degrades toward FCFS: whoever is dispatched first monopolizes a
CPU, and response becomes dispatch-order-dependent. This bench maps the
effect, validating that the Table I simulations (quantum << runtimes)
sit in the faithful regime.
"""

from dataclasses import replace

import pytest

from _harness import report, table
from repro.analysis.calibration import MODERN_SIM
from repro.core import Alternative, run_alternatives_sim

# one fast alternative hidden behind three slow ones in dispatch order
COSTS = [3.0, 3.0, 3.0, 1.0]
CPUS = 2


def run_with_quantum(quantum_s: float):
    profile = replace(MODERN_SIM, quantum_s=quantum_s)
    alternatives = [
        Alternative(lambda ws, _i=i: _i, name=f"a{i}", sim_cost=c)
        for i, c in enumerate(COSTS)
    ]
    outcome, _ = run_alternatives_sim(alternatives, profile=profile, cpus=CPUS)
    return outcome


def generate():
    rows = []
    for quantum in (0.001, 0.01, 0.1, 0.5, 2.0, 5.0):
        outcome = run_with_quantum(quantum)
        rows.append((quantum, outcome.winner.name, outcome.elapsed_s))
    return rows


def quantum_text(rows):
    text = table(["quantum (s)", "winner", "response (s)"], rows)
    return text + (
        f"\n\n(costs {COSTS} on {CPUS} CPUs; the 1.0 s alternative "
        "is dispatched last)"
    )


def test_quantum_ablation(benchmark):
    rows = benchmark.pedantic(generate, iterations=1, rounds=1)
    report("ablation_quantum", quantum_text(rows))
    by = {r[0]: r for r in rows}
    # fine quanta: processor sharing lets the cheap alternative win at
    # ~ (work to its completion across the pool) / CPUs = 2.0 s
    for quantum in (0.001, 0.01, 0.1):
        assert by[quantum][1] == "a3"
        assert by[quantum][2] == pytest.approx(2.0, rel=0.15)
    # giant quanta: FCFS — the cheap-but-late alternative waits for a
    # full slow run before it ever gets a CPU; a slow one wins first
    assert by[5.0][1] != "a3"
    assert by[5.0][2] == pytest.approx(3.0, rel=0.05)
    # responses degrade monotonically-ish from sharing to FCFS
    assert by[5.0][2] > by[0.001][2]


def test_table1_regime_is_fine_quantum(benchmark):
    """The default profile's quantum is far below the Table I runtimes."""

    def check():
        return MODERN_SIM.quantum_s

    quantum = benchmark.pedantic(check, iterations=1, rounds=1)
    assert quantum <= 0.01  # vs ~50 ms sequential rootfinder runs


if __name__ == "__main__":
    for row in generate():
        print(row)
