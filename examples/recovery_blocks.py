#!/usr/bin/env python3
"""Recovery blocks (paper section 4.1): standby spares, sped up.

A recovery block computes a navigation fix three ways:

- ``kalman`` — the primary: precise, but we inject a transient fault;
- ``weighted_average`` — alternate 1: simple, usually fine;
- ``last_known_good`` — alternate 2: always passes but least useful.

The acceptance test (the ``ensure`` clause) bounds the residual error.
Classic sequential execution pays for the primary's failure *before*
trying a spare; the Multiple Worlds version races all three and commits
the first acceptable answer, so a faulty primary costs nothing extra.
"""

import pathlib
import statistics
import sys
import time

# the paper's section-4 workloads live beside the benches that run them
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))

from apps.recovery import RecoveryBlock, flaky

MEASUREMENTS = [10.1, 9.8, 10.3, 9.9, 30.0, 10.0, 10.2]  # one outlier
TRUTH = 10.05


def kalman(ws):
    """The 'precise' estimator (a trimmed mean standing in for a filter)."""
    time.sleep(0.05)  # the expensive model
    samples = sorted(ws["measurements"])[1:-1]
    ws["fix"] = sum(samples) / len(samples)
    return ws["fix"]


def weighted_average(ws):
    time.sleep(0.01)
    ws["fix"] = statistics.median(ws["measurements"])
    return ws["fix"]


def last_known_good(ws):
    """The crudest spare: dead-reckon from the stale fix (drifts)."""
    ws["fix"] = ws["last_fix"] + ws["drift"]
    return ws["fix"]


def acceptable(ws, _result):
    """ensure: the fix is within 0.25 units of the running estimate.

    Tight enough that the dead-reckoning spare only passes when the
    drift is small — an acceptance test must encode *sufficiency*, or a
    raced recovery block will happily commit its crudest spare.
    """
    return abs(ws["fix"] - ws["last_fix"]) < 0.25


def main() -> None:
    state = {"measurements": MEASUREMENTS, "last_fix": TRUTH, "drift": 0.4}

    print("=== healthy primary ===")
    block = RecoveryBlock(acceptable, kalman, weighted_average, last_known_good)
    seq = block.run_sequential(state)
    par = block.run_parallel(state, backend="fork")
    print(f"sequential: {seq.alternate} -> {seq.value:.3f}  "
          f"({seq.elapsed_s * 1000:.1f} ms, attempts={seq.attempts})")
    print(f"parallel  : {par.alternate} -> {par.value:.3f}  "
          f"({par.elapsed_s * 1000:.1f} ms)")

    print("\n=== primary with an injected transient fault ===")
    faulty_primary = flaky(kalman, failures_before_success=1, name="kalman")
    block = RecoveryBlock(acceptable, faulty_primary, weighted_average, last_known_good)
    seq = block.run_sequential(state)
    # fresh injection for the parallel run (the counter was consumed)
    faulty_primary = flaky(kalman, failures_before_success=1, name="kalman")
    block = RecoveryBlock(acceptable, faulty_primary, weighted_average, last_known_good)
    par = block.run_parallel(state, backend="fork")
    print(f"sequential: {seq.alternate} -> {seq.value:.3f}  "
          f"({seq.elapsed_s * 1000:.1f} ms, attempts={seq.attempts})")
    print(f"parallel  : {par.alternate} -> {par.value:.3f}  "
          f"({par.elapsed_s * 1000:.1f} ms)")
    print("\nthe parallel block never pays for the primary's failure: a "
          "spare was already running in its own world.")


if __name__ == "__main__":
    main()
