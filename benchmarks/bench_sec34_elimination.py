"""Section 3.4: sibling elimination, synchronous vs asynchronous.

"the elimination of 16 subprocesses can be accomplished in about 40
milliseconds if waiting for their termination, and 20 milliseconds if
the elimination is done asynchronously."

The calibrated simulation regenerates those numbers as the parent's
response-time penalty; the real fork backend then kills 16 actual
processes both ways on this host. The shape claim: asynchronous
elimination gives better response time (paper section 2.2.1), at the
cost of background work (throughput).
"""

import os

import pytest

from _harness import report, table
from repro.analysis.calibration import ATT_3B2_310
from repro.core import Alternative, EliminationPolicy, run_alternatives_sim

N_SIBLINGS = 16


def simulated_elimination():
    """Response-time penalty of eliminating 16 children, both policies."""
    rows = []
    penalties = {}
    for policy in (EliminationPolicy.SYNCHRONOUS, EliminationPolicy.ASYNCHRONOUS):
        alternatives = [Alternative(lambda ws: "fast", name="fast", sim_cost=0.5)]
        alternatives += [
            Alternative(lambda ws, _i=i: _i, name=f"slow{i}", sim_cost=50.0)
            for i in range(N_SIBLINGS)
        ]
        outcome, kernel = run_alternatives_sim(
            alternatives,
            profile=ATT_3B2_310,
            cpus=N_SIBLINGS + 1,
            elimination=policy,
        )
        penalty_ms = (outcome.elapsed_s - 0.5 - outcome.overhead.setup_s) * 1000
        penalties[policy] = penalty_ms
        rows.append(
            (
                policy.value,
                outcome.overhead.completion_s * 1000,
                penalty_ms,
                outcome.elapsed_s,
            )
        )
    return rows, penalties


def real_fork_elimination():
    """Kill 16 real sleeping children, waiting vs not waiting."""
    import signal
    import time

    results = {}
    for wait in (True, False):
        pids = []
        for _ in range(N_SIBLINGS):
            pid = os.fork()
            if pid == 0:
                time.sleep(60)
                os._exit(0)
            pids.append(pid)
        t0 = time.perf_counter()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        if wait:
            for pid in pids:
                os.waitpid(pid, 0)
        elapsed_ms = (time.perf_counter() - t0) * 1000
        if not wait:
            for pid in pids:  # reap outside the measured window
                os.waitpid(pid, 0)
        results["sync" if wait else "async"] = elapsed_ms
    return results


def simulated_text(rows):
    text = table(
        ["policy", "completion overhead (ms)", "parent penalty (ms)", "response (s)"],
        rows, fmt="9.3f",
    )
    return text + (
        f"\n\n(AT&T 3B2/310 calibration, {N_SIBLINGS} eliminated "
        "siblings; paper: ~40 ms sync, ~20 ms async)"
    )


def test_simulated_elimination_matches_paper(benchmark):
    rows, penalties = benchmark.pedantic(simulated_elimination, iterations=1, rounds=1)
    report("sec34_elimination_sim", simulated_text(rows))
    # the paper's numbers: parent pays ~40 ms when waiting, ~0 when not
    assert penalties[EliminationPolicy.SYNCHRONOUS] == pytest.approx(40.0, rel=0.05)
    assert penalties[EliminationPolicy.ASYNCHRONOUS] == pytest.approx(0.0, abs=1.0)
    # the full async cost is still paid, just off the critical path
    completion = {r[0]: r[1] for r in rows}
    assert completion["async"] == pytest.approx(20.0, rel=0.05)
    assert completion["sync"] == pytest.approx(40.0, rel=0.05)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_real_elimination_shape(benchmark):
    results = benchmark.pedantic(real_fork_elimination, iterations=1, rounds=1)
    report(
        "sec34_elimination_real_host",
        f"this host, {N_SIBLINGS} real children:\n"
        f"  kill + wait  : {results['sync']:.3f} ms\n"
        f"  kill only    : {results['async']:.3f} ms\n"
        "(paper: ~40 ms vs ~20 ms on 1989 hardware)",
    )
    # asynchronous elimination returns control no slower than waiting
    assert results["async"] <= results["sync"] * 1.5
    # and modern hardware beats 1989 by orders of magnitude
    assert results["sync"] < 40.0


if __name__ == "__main__":
    print(simulated_elimination())
    print(real_fork_elimination())
