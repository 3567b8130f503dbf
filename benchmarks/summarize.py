#!/usr/bin/env python3
"""Collect benchmarks/results/*.txt into one REPORT.md.

Run after ``pytest benchmarks/ --benchmark-only``:

    python benchmarks/summarize.py

The report groups the paper's numbered artifacts first, then the
motivation/ablation/application benches, in a stable order.
Serving-stack numbers are not here: ``benchmarks/e2e`` (``mw-e2e``) is
their one source.
"""

from __future__ import annotations

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPORT = os.path.join(os.path.dirname(__file__), "REPORT.md")

SECTIONS = [
    (
        "Paper artifacts",
        [
            ("fig1_alternatives", "Figure 1 — concurrent execution of alternatives"),
            ("fig2_predicates_sender_wins", "Figure 2 — predicates (sender wins)"),
            ("fig2_predicates_sender_loses", "Figure 2 — predicates (sender loses)"),
            ("fig3_pi_vs_rmu", "Figure 3 — PI vs R_mu (R_o = 0.5)"),
            ("fig4_pi_vs_ro", "Figure 4 — PI vs R_o (R_mu = e)"),
            ("table1_rootfinder", "Table I — parallel rootfinder"),
            ("sec32_schemes", "§3.2 — Schemes A/B/C"),
            ("sec33_superlinear", "§3.3 — superlinear speedup"),
            ("sec34_fork_cow_calibration", "§3.4 — fork/COW calibration"),
            ("sec34_write_fraction", "§3.4 — write-fraction sweep"),
            ("sec34_fork_real_host", "§3.4 — fork on this host"),
            ("sec34_elimination_sim", "§3.4 — sibling elimination (calibrated)"),
            ("sec34_elimination_real_host", "§3.4 — sibling elimination (this host)"),
            ("sec34_rfork_model", "§3.4 — rfork (1989 model)"),
            ("sec34_rfork_sweep", "§3.4 — rfork size sweep"),
            ("sec34_rfork_on_demand", "§3.4 — on-demand vs eager migration"),
            ("sec34_rfork_real_host", "§3.4 — rfork pipeline (this host)"),
        ],
    ),
    (
        "Motivation & ablations",
        [
            ("motivation_cow", "COW vs naive state copying (abstract)"),
            ("ablation_guard_placement", "Guard placement"),
            ("ablation_page_size", "Page size"),
            ("ablation_granularity_refs", "Granularity — reference intensity"),
            ("ablation_granularity_objsize", "Granularity — object size"),
            ("ablation_granularity_measured", "Granularity — measured substrates"),
            ("ablation_stagger", "Staggered spares"),
            ("ablation_quantum", "Scheduler quantum"),
        ],
    ),
    (
        "Robustness & serving",
        [
            ("robustness_faults", "Fault-plan supervision matrix"),
            ("robustness_watchdog", "Watchdog & stall recovery"),
            ("robustness_network_link", "Network faults — link retries"),
            ("robustness_network_lease", "Network faults — remote leases"),
            ("robustness_commit_latency", "Commit journal — latency overhead"),
            ("robustness_commit_recovery", "Commit journal — crash recovery"),
            ("restart_recovery", "Cold restart — recovery vs journal length"),
            ("chaos_soak", "Chaos soak — cross-layer fault schedule"),
        ],
    ),
    (
        "Applications",
        [
            ("app_prolog_orparallel", "OR-parallel Prolog"),
            ("app_recovery_blocks", "Recovery blocks"),
            ("app_sorting_domain", "Sorting domain"),
            ("app_rootfinder_accuracy", "Rootfinder accuracy"),
            ("app_rootfinder_dispersion", "Rootfinder angle dispersion"),
        ],
    ),
]


def main() -> None:
    missing = []
    lines = [
        "# Benchmark report",
        "",
        "Generated from `benchmarks/results/` by `benchmarks/summarize.py`.",
        "",
    ]
    for section, entries in SECTIONS:
        lines.append(f"## {section}")
        lines.append("")
        for name, title in entries:
            path = os.path.join(RESULTS_DIR, f"{name}.txt")
            lines.append(f"### {title}")
            lines.append("")
            if os.path.exists(path):
                with open(path) as fh:
                    lines.append("```")
                    lines.append(fh.read().rstrip())
                    lines.append("```")
            else:
                missing.append(name)
                lines.append("_(not generated — run the bench suite first)_")
            lines.append("")
    with open(REPORT, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {REPORT}")
    if missing:
        print(f"missing results: {', '.join(missing)}")


if __name__ == "__main__":
    main()
