"""Suite configuration.

Two bench-side packages are tested here: the paper's section-4
workloads (``benchmarks/apps``: recovery blocks, OR-parallel Prolog, the
polyalgorithms and the Jenkins-Traub rootfinder, sorting) and its 1989
network model (``benchmarks/netmodel``: the simulated link, its fault
plan, remote fork, network store, migration and checkpoint images).
They and the benches' ``_harness`` import as top-level modules, as they
do when a bench runs, so ``benchmarks/`` goes on the path.
"""

import os
import sys

_BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
if _BENCHMARKS not in sys.path:
    sys.path.append(_BENCHMARKS)
