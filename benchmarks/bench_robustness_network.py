"""Network robustness bench: completion and added latency vs link loss.

Sweeps the link's transfer-failure probability and, for each rate, runs
real remote forks (checkpoint -> ship over the fault-injected link ->
restart in a forked child) across a batch of seeds. Reported per rate:

- completion fraction (every task must commit — by retries or by the
  local fallback; losing work is not an acceptable outcome);
- how the commits split between first-try, retried, and fallen-back;
- mean protocol attempts and the added *virtual* latency the
  unreliability cost (failed attempts, duplicate copies, backoff pauses)
  on top of the rate-0 baseline transfer.

A second table gives the same treatment to leased remote worlds
(:func:`run_leased`): node crash probability vs how often the lease
machinery re-lands the work locally, and what the detection (heartbeat
misses -> probe -> declare-dead) costs in beats.

Run standalone with ``--quick`` for the CI smoke (a trimmed sweep that
still exercises every code path), or under pytest-benchmark for the
full tables.
"""

import sys

from _harness import report, table
from netmodel.checkpoint import CheckpointImage
from netmodel.faults import REMOTE_SITE, NetFaultKind, NetFaultPlan
from netmodel.lease import LeaseState, RemoteWorldLease
from netmodel.netsim import SimulatedLink
from netmodel.rfork import _RETRYABLE, RemoteFork, RemoteNode
from repro.analysis.calibration import NetworkProfile
from repro.distrib.retry import call_with_retries
from repro.errors import RetriesExhausted
from repro.faults.plan import heartbeat_lost
from repro.faults.supervisor import Supervisor

#: A fast link so wall-clock stays bench-friendly; the virtual-time
#: accounting is what the tables report.
LINK_PROFILE = NetworkProfile("bench-lan", latency_s=0.002, bandwidth_bytes_s=1e7)

RATES = (0.0, 0.1, 0.3, 0.5, 0.7)
SEEDS = range(8)
QUICK_RATES = (0.0, 0.3, 0.7)
QUICK_SEEDS = range(3)


def _task(state):
    return state["x"] * 2


def _make_rfork(rate, seed):
    plan = NetFaultPlan(seed=seed, rates={NetFaultKind.XFER_DROP: rate})
    link = SimulatedLink(LINK_PROFILE, fault_plan=plan, seed=seed)
    return RemoteFork(link=link)


def sweep_link_loss(rates=RATES, seeds=SEEDS):
    """Completion + latency vs drop probability, with the path breakdown."""
    rows = []
    for rate in rates:
        done = first_try = retried = fell_back = 0
        attempts = 0
        virtual_s = 0.0
        for seed in seeds:
            rfork = _make_rfork(rate, seed)
            result, cost = rfork.execute(_task, {"x": 21}, name=f"bench-{seed}")
            report_ = rfork.last_report
            done += result == 42
            attempts += report_["attempts"]
            virtual_s += rfork.link.clock
            if report_["fallback"] == "local":
                fell_back += 1
            elif report_["retries"]:
                retried += 1
            else:
                first_try += 1
        n = len(seeds)
        rows.append((rate, done / n, first_try, retried, fell_back,
                     attempts / n, virtual_s / n))
    # added latency is relative to the clean-link baseline
    base = rows[0][6]
    return [r[:6] + (r[6] - base,) for r in rows]


def run_leased(fn, state, rfork, work_s=1.0):
    """Run ``fn(state)`` on a leased remote world; re-land it locally on death.

    The protocol, all in deterministic virtual link time:

    1. checkpoint the task and ship it over ``rfork.link`` with bounded
       retries (drops, partitions and corrupt deliveries each re-roll per
       attempt);
    2. grant a :class:`~netmodel.lease.RemoteWorldLease` and feed it
       one beat every ``lease.heartbeat_s`` while the remote works for
       ``work_s`` virtual seconds. A beat goes missing when it is lost in
       flight, the link flaps or the node crashed (all fault-plan sites);
       the lease's miss -> probe -> declare ladder decides when that
       means the holder is dead;
    3. a dead (or never-reachable) remote world is reclaimed and its work
       re-landed locally through :meth:`Supervisor.run`.

    Returns a report: the task's ``value``, whether it was ``relanded``
    and why (``reason``), the lease event log (``lease``), the ship's
    retry stats (``ship``) and the beats the lease saw.
    """
    link = rfork.link
    plan = link.fault_plan
    lease = RemoteWorldLease(lease_id=0, node_id=rfork.node_id, granted_at_s=link.clock)
    node = RemoteNode(node_id=lease.node_id, plan=plan)
    blob = CheckpointImage.capture(fn, state, "remote-world").to_bytes()

    def ship_once(attempt):
        return CheckpointImage.from_bytes(link.ship(blob, attempt=attempt).payload)

    report_ = {"reason": None}
    restored = None
    try:
        restored, ship_stats = call_with_retries(
            ship_once, policy=rfork.retry, token=f"lease:{lease.lease_id}:ship",
            link=link, retry_on=_RETRYABLE,
        )
    except RetriesExhausted as exc:
        ship_stats = exc.stats
        lease.declare_dead(link.clock, f"unreachable: {exc}")
        lease.reclaim(link.clock)
        report_["reason"] = "remote-unreachable"
    report_["ship"] = ship_stats.as_dict()

    if restored is not None:
        t0 = link.clock
        done_at = t0 + work_s
        crash_rel = node.crash_time(work_s)
        crash_at = None if crash_rel is None else t0 + crash_rel
        if crash_at is not None:
            plan.note_injection(
                REMOTE_SITE, NetFaultKind.REMOTE_CRASH,
                detail=f"node {lease.node_id} dies at t={crash_at:.6f}s",
                t=crash_at, track=f"lease:{lease.lease_id}",
                node=lease.node_id, lease=lease.lease_id,
            )
        beat = 0
        while lease.alive:
            beat += 1
            now = t0 + beat * lease.heartbeat_s
            node_alive = crash_at is None or now < crash_at
            if node_alive and now >= done_at:
                lease.complete(done_at)
                break
            verdict = lease.beat(
                now, alive=node_alive,
                reachable=plan is None or not plan.link_down(link.link_id, now),
                lost=heartbeat_lost(
                    plan, lease.lease_id, beat, t=now,
                    track=f"lease:{lease.lease_id}", lease=lease.lease_id,
                ),
                reason="beat lost in flight" if node_alive else "node crashed",
            )
            if verdict is LeaseState.DEAD:
                lease.reclaim(now)
                report_["reason"] = "lease-expired"
        report_["beats_ok"] = lease.beats_ok
        report_["beats_missed"] = lease.beats_missed

    report_["relanded"] = report_["reason"] is not None
    if report_["relanded"]:
        outcome = Supervisor(fault_plan=plan).run([fn], initial=state, backend="sequential")
        report_["value"] = outcome.value
    else:
        # the remote survived its lease: commit its result. The local
        # restart stands in for the CPU we do not have on the far end.
        report_["value"] = restored.restart()
    report_["lease"] = [
        {"at_s": e.at_s, "event": e.event, "detail": e.detail} for e in lease.events
    ]
    return report_


def sweep_remote_crash(rates=RATES, seeds=SEEDS):
    """Leased remote worlds: crash probability vs re-landing behaviour."""
    rows = []
    for rate in rates:
        done = relanded = 0
        beats_missed = 0
        for seed in seeds:
            plan = NetFaultPlan(seed=seed, rates={NetFaultKind.REMOTE_CRASH: rate})
            link = SimulatedLink(LINK_PROFILE, fault_plan=plan, seed=seed)
            leased = run_leased(_task, {"x": 21}, RemoteFork(link=link))
            done += leased["value"] == 42
            relanded += leased["relanded"]
            beats_missed += leased.get("beats_missed", 0)
        n = len(seeds)
        rows.append((rate, done / n, relanded / n, beats_missed / n))
    return rows


LINK_HEADERS = (
    "drop rate", "completed", "first-try", "retried", "fallback",
    "mean attempts", "added latency (s)",
)
CRASH_HEADERS = ("crash rate", "completed", "relanded", "mean beats missed")


def link_text(rows):
    return table(LINK_HEADERS, rows, fmt="8.3f")


def crash_text(rows):
    return table(CRASH_HEADERS, rows, fmt="8.3f")


def _check_link_rows(rows):
    by_rate = {r[0]: r for r in rows}
    for rate, completed, *_ in rows:
        assert completed == 1.0, f"lost work at drop rate {rate}"
    assert by_rate[0.0][3] == 0 and by_rate[0.0][4] == 0  # clean link: no retries
    assert abs(by_rate[0.0][6]) < 1e-12  # and no added latency
    top = max(rows, key=lambda r: r[0])
    assert top[3] + top[4] > 0  # heavy loss genuinely exercised the protocol
    assert top[6] > 0  # and unreliability had a visible price


def _check_crash_rows(rows):
    by_rate = {r[0]: r for r in rows}
    for rate, completed, *_ in rows:
        assert completed == 1.0, f"lost work at crash rate {rate}"
    assert by_rate[0.0][2] == 0.0  # no crash, no re-landing
    top = max(rows, key=lambda r: r[0])
    assert top[2] > 0  # crashes really re-land work locally


def test_completion_vs_link_loss(benchmark):
    rows = benchmark.pedantic(sweep_link_loss, iterations=1, rounds=1)
    report("robustness_network_link", link_text(rows))
    _check_link_rows(rows)


def test_lease_recovery_vs_crash_rate(benchmark):
    rows = benchmark.pedantic(sweep_remote_crash, iterations=1, rounds=1)
    report("robustness_network_lease", crash_text(rows))
    _check_crash_rows(rows)


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    rates = QUICK_RATES if quick else RATES
    seeds = QUICK_SEEDS if quick else SEEDS
    link_rows = sweep_link_loss(rates, seeds)
    print(link_text(link_rows))
    _check_link_rows(link_rows)
    crash_rows = sweep_remote_crash(rates, seeds)
    print(crash_text(crash_rows))
    _check_crash_rows(crash_rows)
    print("ok")
