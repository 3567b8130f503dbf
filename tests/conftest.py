"""Suite configuration.

The paper's 1989 network model (``benchmarks/netmodel``: the simulated
link, remote fork, network store, migration and checkpoint images) is
tested here. It and the benches' ``_harness`` import as top-level
modules, as they do when a bench runs, so ``benchmarks/`` goes on the
path.
"""

import os
import sys

_BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
if _BENCHMARKS not in sys.path:
    sys.path.append(_BENCHMARKS)
