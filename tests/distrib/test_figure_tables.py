"""Every deterministic bench table regenerates byte for byte.

Each table is recomputed through its bench's own functions — the one
that builds its text, as the bench's pytest function calls it — and
compared with the committed file under ``benchmarks/results/``; nothing
is rewritten. A table whose only host-dependent cells are named timing
columns is compared with those columns blanked (:data:`MASKED`).

Not pinned, each for its reason:

- ``app_rootfinder_dispersion``, ``table1_rootfinder``: every figure is
  host wall time (Table I's parallel column replays measured seconds);
- ``robustness_faults``, ``robustness_watchdog``: latencies of real
  forked blocks, and the watchdog escalation they race against;
- ``sec34_elimination_real_host``, ``sec34_rfork_real_host``,
  ``sec34_fork_real_host``: real processes timed on the host that ran
  the bench;
- ``restart_recovery``: journal open and lookup times on that host's
  disk;
- ``chaos_soak``: CI's soak log, which ends in the soak's wall time;
- ``fig1_observability``: the telemetry overhead of timed runs.

The benches are imported by the module path ``pytest benchmarks/`` gives
them, which writes the committed files: a remote fork's retry jitter is
keyed on its image's payload, and a pickled task names its module.
"""

import pathlib
import re

import pytest

import benchmarks.bench_ablation_granularity as granularity
import benchmarks.bench_ablation_guards as guards
import benchmarks.bench_ablation_pagesize as pagesize
import benchmarks.bench_ablation_quantum as quantum
import benchmarks.bench_ablation_stagger as stagger
import benchmarks.bench_app_prolog as prolog
import benchmarks.bench_app_recovery as recovery
import benchmarks.bench_app_rootfinder as rootfinder
import benchmarks.bench_app_sorting as sorting
import benchmarks.bench_fig1_alternatives as fig1
import benchmarks.bench_fig2_predicates as fig2
import benchmarks.bench_fig3_pi_vs_rmu as fig3
import benchmarks.bench_fig4_pi_vs_ro as fig4
import benchmarks.bench_motivation_cow as cow
import benchmarks.bench_robustness_network as network
import benchmarks.bench_sec32_schemes as schemes
import benchmarks.bench_sec33_superlinear as superlinear
import benchmarks.bench_sec34_elimination as elimination
import benchmarks.bench_sec34_fork_cow as fork_cow
import benchmarks.bench_sec34_rfork as rfork

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"

TABLES = {
    "ablation_granularity_measured": lambda: granularity.measured_text(*granularity.measured_schemes()),
    "ablation_granularity_objsize": lambda: granularity.objsize_text(granularity.object_size_sweep()),
    "ablation_granularity_refs": lambda: granularity.refs_text(granularity.reference_sweep()),
    "ablation_guard_placement": lambda: guards.placement_text(guards.generate()),
    "ablation_page_size": lambda: pagesize.page_size_text(pagesize.generate()),
    "ablation_quantum": lambda: quantum.quantum_text(quantum.generate()),
    "ablation_stagger": lambda: stagger.stagger_text(stagger.generate()),
    "app_prolog_orparallel": lambda: prolog.prolog_text(prolog.generate()),
    "app_recovery_blocks": lambda: recovery.recovery_text(recovery.generate()),
    "app_rootfinder_accuracy": lambda: rootfinder.accuracy_text(rootfinder.accuracy_sweep()),
    "app_sorting_domain": lambda: sorting.domain_text(*sorting.generate()),
    "fig1_alternatives": lambda: fig1.timeline_text(*fig1.run_figure1()),
    "fig2_predicates_sender_loses": lambda: fig2.render(fig2.run_scenario(False)[0]),
    "fig2_predicates_sender_wins": lambda: fig2.render(fig2.run_scenario(True)[0]),
    "fig3_pi_vs_rmu": lambda: fig3.figure3_text(fig3.generate()),
    "fig4_pi_vs_ro": lambda: fig4.figure4_text(fig4.generate()),
    "motivation_cow": lambda: cow.cow_text(cow.width_sweep()),
    "sec32_schemes": lambda: schemes.schemes_text(*schemes.generate()),
    "sec33_superlinear": lambda: superlinear.superlinear_text(superlinear.generate()),
    "sec34_elimination_sim": lambda: elimination.simulated_text(elimination.simulated_elimination()[0]),
    "sec34_fork_cow_calibration": lambda: fork_cow.calibration_text(
        fork_cow.simulated_fork_times(), fork_cow.simulated_copy_rates()
    ),
    "sec34_write_fraction": lambda: fork_cow.write_fraction_text(fork_cow.write_fraction_sweep()),
    "sec34_rfork_model": lambda: rfork.model_text(rfork.model_1989()),
    "sec34_rfork_sweep": lambda: rfork.sweep_text(rfork.size_sweep()),
    "sec34_rfork_on_demand": lambda: rfork.on_demand_text(*rfork.on_demand()),
    "robustness_network_link": lambda: network.link_text(network.sweep_link_loss()),
    "robustness_network_lease": lambda: network.crash_text(network.sweep_remote_crash()),
}

#: table -> the host-timing columns blanked before comparing
MASKED = {"app_rootfinder_accuracy": ("time (ms)",)}


def _mask(text, columns):
    """``text`` with the named columns of its leading table blanked.

    A bench table (``_harness.table``) is a header line, a rule of one
    dash run per column, then rows, each cell right-aligned in its
    column's span; it ends at the first blank line.
    """
    lines = text.split("\n")
    spans = [m.span() for m in re.finditer(r"-+", lines[1])]
    blank = [(a, b) for a, b in spans if lines[0][a:b].strip() in columns]
    assert len(blank) == len(columns), f"no column among {columns}"
    end = lines.index("") if "" in lines else len(lines)
    for i in range(end):
        for a, b in blank:
            lines[i] = lines[i][:a] + " " * (b - a) + lines[i][b:]
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_committed_table_regenerates_identically(name):
    fresh, committed = TABLES[name]() + "\n", (RESULTS / f"{name}.txt").read_text()
    if name in MASKED:
        fresh, committed = _mask(fresh, MASKED[name]), _mask(committed, MASKED[name])
    assert fresh == committed


def test_every_committed_table_is_pinned_or_listed():
    """A new table under ``benchmarks/results/`` is pinned above or
    named, with its reason, in this module's docstring."""
    listed = set(re.findall(r"``(\w+)``", __doc__))
    unaccounted = [
        path.stem for path in RESULTS.glob("*.txt")
        if path.stem not in TABLES and path.stem not in listed
    ]
    assert not unaccounted


def test_link_loss_sweep_is_deterministic():
    """A retry's backoff jitter is keyed on the task, not on when its
    image was captured, so two sweeps agree to the last bit."""
    rates, seeds = network.QUICK_RATES, network.QUICK_SEEDS
    assert network.sweep_link_loss(rates, seeds) == network.sweep_link_loss(rates, seeds)
