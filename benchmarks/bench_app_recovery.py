"""Application bench: distributed execution of recovery blocks (§4.1).

The paper's claim: because every alternate of a recovery block is
guaranteed the same initial state, they can run concurrently — the
response-time cost of a failing primary disappears (a spare was already
running). The bench sweeps the primary's failure behaviour and compares
classic sequential standby-spares against the worlds execution on the
simulation kernel (deterministic virtual time).
"""

import pytest

from _harness import report, table
from apps.recovery import RecoveryBlock

PRIMARY_S = 1.0
SPARE_S = 1.2
CRUDE_S = 0.4

# acceptance: a result is acceptable when its error bound is tight enough
TOLERANCE = 0.3


def _alternates(primary_fails: bool, crude_acceptable: bool):
    def primary(ws):
        if primary_fails:
            raise RuntimeError("primary fault")
        ws["estimate"] = 10.0
        ws["error"] = 0.05
        return "primary"

    def spare(ws):
        ws["estimate"] = 10.02
        ws["error"] = 0.2
        return "spare"

    def crude(ws):
        ws["estimate"] = 10.5
        ws["error"] = 0.1 if crude_acceptable else 0.9
        return "crude"

    return primary, spare, crude


def _accept(ws, _value):
    return ws.get("error", 1.0) < TOLERANCE


def run_case(primary_fails: bool, crude_acceptable: bool):
    primary, spare, crude = _alternates(primary_fails, crude_acceptable)
    block = RecoveryBlock(_accept, primary, spare, crude)

    # sequential virtual cost: sum of attempted alternates' durations
    durations = {"primary": PRIMARY_S, "spare": SPARE_S, "crude": CRUDE_S}
    seq = block.run_sequential({})
    seq_virtual = sum(durations[a] for a in seq.attempts)

    par = block.run_parallel(
        {}, backend="sim", sim_costs=[PRIMARY_S, SPARE_S, CRUDE_S], cpus=3
    )
    return seq, seq_virtual, par


def generate():
    rows = []
    for primary_fails, crude_ok, label in [
        (False, False, "healthy primary"),
        (True, False, "primary faults"),
        (True, True, "primary faults, crude spare acceptable"),
    ]:
        seq, seq_virtual, par = run_case(primary_fails, crude_ok)
        rows.append(
            (
                label,
                seq.alternate,
                seq_virtual,
                par.alternate,
                par.outcome.elapsed_s,
            )
        )
    return rows


def recovery_text(rows):
    return table(
        ["case", "seq winner", "seq virtual (s)", "par winner", "par virtual (s)"],
        rows, fmt="8.3f",
    )


def test_recovery_block_response_times(benchmark):
    rows = benchmark.pedantic(generate, iterations=1, rounds=1)
    report("app_recovery_blocks", recovery_text(rows))

    by = {r[0]: r for r in rows}
    healthy = by["healthy primary"]
    faulty = by["primary faults"]
    crude_ok = by["primary faults, crude spare acceptable"]

    # healthy: sequential pays the primary only; parallel about the same
    assert healthy[1] == "primary"
    assert healthy[2] == pytest.approx(PRIMARY_S)
    assert healthy[4] == pytest.approx(PRIMARY_S, rel=0.05)

    # faulty primary: sequential pays primary + spare in series; the
    # worlds execution still pays ~one spare's duration
    assert faulty[1] == "spare" and faulty[3] == "spare"
    assert faulty[2] == pytest.approx(PRIMARY_S + SPARE_S)
    assert faulty[4] == pytest.approx(SPARE_S, rel=0.05)
    assert faulty[4] < faulty[2] / 1.5

    # an acceptable crude spare makes the parallel block even faster
    # (fastest acceptable wins), while sequential still walks the chain
    assert crude_ok[3] == "crude"
    assert crude_ok[4] == pytest.approx(CRUDE_S, rel=0.1)


def test_fault_free_overhead_is_small(benchmark):
    """Racing spares costs little when the primary is healthy."""

    def run():
        _, seq_virtual, par = run_case(False, False)
        return par.outcome.elapsed_s - seq_virtual

    extra = benchmark.pedantic(run, iterations=1, rounds=1)
    assert extra < 0.01  # worlds overhead only


if __name__ == "__main__":
    for row in generate():
        print(row)
