"""``mw-e2e``: the end-to-end benchmark of the Multiple Worlds stack.

Two ways in, one measurement:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One window of one workload in this process: set the stack up, warm it,
    measure for S seconds, check every output, tear down. The last line of
    standard output is the result as one JSON object. ``--trace 0`` reports
    the end-to-end metrics; ``--trace 1`` runs the window with the timing
    probes in and reports the per-layer metrics.

``run.py --seed N [--repeat R]``
    The whole set: every workload, three untraced windows and one traced,
    each in a fresh interpreter (the first form). Prints one line per metric
    and writes ``results/latest.json`` and ``results/latest.spans.jsonl``;
    with ``--repeat`` it runs R sets, alternating the workload order, and
    writes ``results/calibration.json``.

See README.md for what the workloads are and why.
"""

import time

_T0 = time.monotonic()  # setup_s counts from here: imports are set-up too

import argparse
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir, "src"))
for _path in (SRC, HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import ledger  # noqa: E402 - needs HERE on the path

now = time.monotonic

#: spans that are not per-layer metrics of their own
UNLISTED_SPANS = {"op", "loadgen.lag"}
#: an open-loop window whose generator ran later than this is disturbed
LAG_LIMIT_MS = 1.0
DETAIL_MARK = "#detail "


@dataclass(frozen=True)
class Plan:
    """How much one window measures."""

    seconds: float
    warmup_ops: int = 200
    setup_reps: int = 3
    isolated_calls: int = 2000
    untraced_windows: int = 3


#: ``--quick``: a smoke of the whole path; its numbers compare with nothing
QUICK = Plan(seconds=0.5, warmup_ops=20, setup_reps=1, isolated_calls=200,
             untraced_windows=1)


# -- one window ---------------------------------------------------------------
def _cpu_seconds(host_pids) -> float:
    """CPU time so far of this process, its reaped children and the live
    shard hosts (``utime + stime`` of ``/proc/<pid>/stat``)."""
    total = sum(os.times()[:4])
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in host_pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def _throughput(good) -> float:
    """Correct ops per second of the wall time they spanned."""
    if not good:
        return 0.0
    return len(good) / (max(d.end for d in good) - min(d.start for d in good))


def _end_to_end(good, setup_s: float) -> dict:
    latencies = [d.latency * 1e3 for d in good]
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "throughput_rps": _throughput(good),
        "latency_p50_ms": ledger.percentile(latencies, 50),
        "latency_p95_ms": ledger.percentile(latencies, 95),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib / 1024.0,
    }


def _per_layer(done, good, cpu_s: float, reference_rps: float) -> dict:
    """The in-situ figures of a traced window."""
    terms: dict[str, list[float]] = {}
    for d in good:
        for name, value in d.terms.items():
            terms.setdefault(name, []).append(value)
        for span in d.tree.spans:
            terms.setdefault(span.name, []).append(span.duration)

    # the share of an op's latency that none of its spans accounts for:
    # the root span's self time
    unexplained = [
        ledger.self_times(d.tree.spans)[0] / d.latency for d in good
    ]
    taus = [(d, d.body[1] - d.body[0]) for d in good if None not in d.body]
    # every dotted term is a duration in seconds, reported as its p50 in ms
    values = {
        name + "_ms": ledger.p50(samples) * 1e3
        for name, samples in terms.items()
        if "." in name and name not in UNLISTED_SPANS
    }
    values.update({
        "core.ro_p50": ledger.p50([(d.latency - tau) / tau for d, tau in taus]),
        "core.pi_p50": ledger.p50([d.op.tau_mean_ms / 1e3 / d.latency for d in good]),
        "core.over_cmean_share": 1.0 - sum(
            1 for d in good if d.latency * 1e3 <= d.op.tau_mean_ms
        ) / len(done),
        "core.worlds_per_commit": ledger.mean([d.k for d in good]),
        "loadgen.lag_p95_ms": ledger.percentile([d.lag for d in done], 95) * 1e3,
        "process.cpu_ms_per_op": cpu_s * 1e3 / len(done),
        "trace.sum_residual_pct": 100.0 * ledger.p50(unexplained),
        "trace.overhead_pct": 100.0 * (1.0 - _throughput(good) / reference_rps),
    })
    if "result_bytes" in terms:
        values["runtime.fork.result_bytes"] = ledger.p50(terms["result_bytes"])
    if "granted" in terms:  # the in-process service, probed
        values.update({
            "serve.admission.depth_p95": ledger.percentile(terms["depth"], 95),
            "serve.budget.granted_slots_mean": ledger.mean(terms["granted"]),
            "serve.policy.k_mean": ledger.mean([d.k for d in good]),
            "serve.shed_count": sum(1 for d in done if d.status == "shed"),
            "serve.rejected_count": sum(1 for d in done if d.status == "rejected"),
            "journal.records_per_op": ledger.mean(terms["journal_records"]),
        })
    if "shard" in terms:  # the router
        per_shard = [terms["shard"].count(sid) for sid in set(terms["shard"]) if sid >= 0]
        values.update({
            "cluster.router.attempts_mean": ledger.mean(terms["attempts"]),
            "cluster.router.failover_count": sum(terms["failover"]),
            "cluster.router.shard_imbalance":
                (max(per_shard) - min(per_shard)) / ledger.mean(per_shard),
        })
    return values


def _queue_wait_check(good) -> float | None:
    """Median gap, in ms, between the queue wait the probes saw and the one
    the service reported for the same request."""
    gaps = [
        abs(span.duration - d.terms["queue_wait_reported"]) * 1e3
        for d in good if "queue_wait_reported" in d.terms
        for span in d.tree.spans if span.name == "serve.admission.queue_wait"
    ]
    return ledger.p50(gaps) if gaps else None


def run_window(name: str, seed: int, plan: Plan, traced: bool, spans_path: str | None):
    """Measure one window; returns ``(result, detail)``."""
    from gen import generate
    from workloads import WORKLOADS

    import_s = now() - _T0
    manifest = ledger.load_manifest()
    workload = WORKLOADS[name]
    ops = generate(name, seed)
    root = os.path.relpath(os.path.join(HERE, ".work", str(os.getpid())))
    # A traced run needs an untraced window to be compared with; it runs on
    # the stack before the measured one, so that stack is not thrown away.
    reps = max(plan.setup_reps, 2) if traced else plan.setup_reps
    setups, breaches, reference_rps, live = [], [], 0.0, None
    try:
        for rep in range(reps):
            last = rep == reps - 1
            t0 = now()
            live = workload(traced and last, os.path.join(root, f"r{rep}"))
            os.makedirs(live.workdir)
            live.build()
            live.warm(ops, plan.warmup_ops)
            setups.append(now() - t0)
            if last:
                break
            if traced and rep == reps - 2:
                reference = live.measure(ops, plan.seconds / 2)
                reference_rps = _throughput([d for d in reference if d.breach() is None])
            breaches += live.close()[0]
        cpu0 = _cpu_seconds(live.host_pids())
        done = live.measure(ops, plan.seconds)
        cpu_s = _cpu_seconds(live.host_pids()) - cpu0
        isolated = {}
        if traced:
            isolated = live.isolated(list(itertools.islice(ops, 256)), plan.isolated_calls)
        audit, journal = live.close()
        live = None
        breaches += audit
    finally:
        if live is not None:
            try:
                live.close()
            except Exception:  # noqa: BLE001 - the first error is the one to report
                pass
        shutil.rmtree(root, ignore_errors=True)

    # nothing left behind
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
        breaches.append(f"child {pid} left behind")
    except ChildProcessError:
        pass
    if os.path.exists(root):
        breaches.append(f"scratch directory {root} not removed")

    verdicts = [(d, d.breach()) for d in done]
    good = [d for d, why in verdicts if why is None]
    bad = [f"op {d.op.index}: {why}" for d, why in verdicts if why is not None]
    lag_p95_ms = ledger.percentile([d.lag for d in done], 95) * 1e3
    detail = {
        "workload": name, "seed": seed, "traced": traced, "seconds": plan.seconds,
        "samples": len(good),
        "p95_samples_beyond": ledger.samples_beyond(len(good), 95),
        "highest_percentile": ledger.highest_percentile(len(good)),
        "setup_runs_s": setups, "import_s": import_s,
        "lag_p95_ms": lag_p95_ms, "disturbed": lag_p95_ms > LAG_LIMIT_MS,
        "upsets": sum(1 for d in good if d.upset),
        "breaches": breaches + bad[:20],
    }
    if traced:
        values = _per_layer(done, good, cpu_s, reference_rps)
        values.update(isolated)
        values.update(journal)
        metrics = ledger.fill(manifest, "per_layer", values)
        detail["queue_wait_check_ms"] = _queue_wait_check(good)
        if spans_path:
            detail["spans"] = ledger.write_spans(
                spans_path, name, (s for d in done if d.tree for s in d.tree.spans)
            )
    else:
        setup_s = import_s + ledger.p50(setups)
        metrics = ledger.fill(manifest, "end_to_end", _end_to_end(good, setup_s))
    failed = len(bad) + len(breaches)
    result = {
        "correct": failed == 0, "attempted": len(done), "failed": failed,
        "metrics": metrics,
    }
    return result, detail


# -- the whole set --------------------------------------------------------------
def _child(name: str, seed: int, plan: Plan, quick: bool, traced: bool, spans_path):
    """One window in a fresh interpreter; returns ``(result, detail)``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(plan.seconds),
           "--trace", "1" if traced else "0"]
    if quick:
        cmd.append("--quick")
    if traced and spans_path:
        cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{name} window died ({proc.returncode}):\n{proc.stderr}")
    detail = next(
        json.loads(line[len(DETAIL_MARK):]) for line in lines if line.startswith(DETAIL_MARK)
    )
    return json.loads(lines[-1]), detail


def run_set(seed: int, plan: Plan, quick: bool, order, spans_path) -> dict:
    """Every workload once: ``untraced_windows`` untraced windows, whose
    medians are the end-to-end values, then one traced window."""
    out = {}
    for name in order:
        windows = [_child(name, seed, plan, quick, False, None)
                   for _ in range(plan.untraced_windows)]
        traced, traced_detail = _child(name, seed, plan, quick, True, spans_path)
        end_to_end = {}
        for metric, first in windows[0][0]["metrics"].items():
            summary = ledger.summarize([r["metrics"][metric]["value"] for r, _ in windows])
            end_to_end[metric] = {
                "value": summary["median"], "unit": first["unit"],
                "window_spread": summary["max_spread"], "windows": summary["values"],
            }
        results = [r for r, _ in windows] + [traced]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        out[name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "samples_per_window": [d["samples"] for _, d in windows],
            "disturbed_windows": sum(d["disturbed"] for _, d in windows),
            "upsets": sum(d["upsets"] for _, d in windows) + traced_detail["upsets"],
            "breaches": [b for _, d in windows for b in d["breaches"]]
                        + traced_detail["breaches"],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "traced": traced_detail,
        }
    return out


def _print_set(result: dict) -> None:
    for name, w in result.items():
        n = min(w["samples_per_window"])
        for metric, m in w["end_to_end"].items():
            print(f"{name} {metric} {m['value']:.4f} {m['unit']} "
                  f"n>={n}/window spread={m['window_spread']:.3f}")
        print(f"{name} failed_share {w['failed_share']:.6f} share "
              f"n={w['attempted']} failed={w['failed']}")
        if w["upsets"]:
            print(f"{name} upsets {w['upsets']} count "
                  f"(a slower alternative reported first at K=3; legal, not failed)")
        if w["disturbed_windows"]:
            print(f"{name} disturbed windows={w['disturbed_windows']} "
                  f"(generator lag p95 over {LAG_LIMIT_MS} ms; kept)")
        for metric, m in w["per_layer"].items():
            print(f"{name} {metric} {m['value']:.4f} {m['unit']} n={w['traced']['samples']}")
        for breach in w["breaches"]:
            print(f"{name} BREACH {breach}")


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def run_all(seed: int, plan: Plan, quick: bool, repeat: int, out_dir: str) -> bool:
    manifest = ledger.load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, "latest.spans.jsonl")
    header = {"seed": seed, "plan": plan.__dict__, "comparable": not quick}
    sets = []
    for i in range(repeat):
        if os.path.exists(spans_path):
            os.remove(spans_path)  # the file holds the latest set's spans only
        order = names if i % 2 == 0 else names[::-1]
        by_name = run_set(seed, plan, quick, order, spans_path)
        sets.append({name: by_name[name] for name in names})
        _print_set(sets[-1])
    _write(os.path.join(out_dir, "latest.json"), {**header, "workloads": sets[-1]})
    if repeat > 1:
        calibration = {
            name: {
                metric: ledger.summarize([s[name]["end_to_end"][metric]["value"] for s in sets])
                for metric in sets[0][name]["end_to_end"]
            }
            for name in names
        }
        for name, metrics in calibration.items():
            for metric, c in metrics.items():
                print(f"{name} {metric} median={c['median']:.4f} q1={c['q1']:.4f} "
                      f"q3={c['q3']:.4f} max_spread={c['max_spread']:.3f} sets={repeat}")
        _write(os.path.join(out_dir, "calibration.json"),
               {**header, "sets": repeat, "end_to_end": calibration})
    return all(w["correct"] for s in sets for w in s.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure one window of this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="window length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="append the traced window's spans to this file")
    parser.add_argument("--repeat", type=int, default=1, help="full sets to run")
    parser.add_argument("--quick", action="store_true",
                        help="short smoke windows; numbers are not comparable")
    parser.add_argument("--out", default=os.path.join(HERE, "results"),
                        help="directory for latest.json and the span file")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"mw-e2e: nothing to measure, {SRC}/repro is missing", file=sys.stderr)
        return 2
    manifest = ledger.load_manifest()
    plan = QUICK if args.quick else Plan(seconds=args.seconds or manifest["run_seconds"])
    if args.workload is None:
        return 0 if run_all(args.seed, plan, args.quick, args.repeat, args.out) else 1
    result, detail = run_window(args.workload, args.seed, plan, bool(args.trace), args.spans)
    for metric, m in result["metrics"].items():
        print(f"{args.workload} {metric} {m['value']:.4f} {m['unit']} n={detail['samples']}")
    print(DETAIL_MARK + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
