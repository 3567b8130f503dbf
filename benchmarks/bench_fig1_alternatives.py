"""Figure 1: concurrent execution of alternatives.

The paper's Figure 1 is a diagram: a sequential program reaches the start
block, n methods plus the failure alternative run concurrently, the first
success synchronizes, and the siblings are eliminated. This bench
executes exactly that scenario on the simulation kernel and renders the
kernel's own event trace as a text timeline, then asserts the diagram's
ordering properties. The benchmark also exercises guard-placement
variants (the figure's GUARD discussion).
"""

import pytest

from _harness import report
from repro.core.alternative import Alternative, Guard, GuardPlacement
from repro.core.policy import EliminationPolicy
from repro.kernel import Kernel


def _method(label: str, seconds: float):
    def method(ctx):
        yield ctx.compute(seconds)
        yield ctx.put("result", label)
        return label

    method.__name__ = label
    return method


def run_figure1(trace: bool = True, obs=None):
    """Three methods with dispersed runtimes; method_2 is fastest."""
    kernel = Kernel(cpus=4, trace=trace, obs=obs)
    box = {}

    def sequential_program(ctx):
        yield ctx.compute(0.2)  # work before the start block
        out = yield from ctx.run_alternatives(
            [
                _method("method_1", 3.0),
                _method("method_2", 1.0),
                _method("method_3", 2.0),
            ],
            elimination=EliminationPolicy.ASYNCHRONOUS,
        )
        box["outcome"] = out
        yield ctx.compute(0.1)  # work after the synchronization
        return out.value

    kernel.spawn(sequential_program, name="main")
    kernel.run()
    return kernel, box["outcome"]


def render_timeline(kernel: Kernel) -> str:
    interesting = kernel.trace.of_kind(
        "spawn", "alt-spawn", "alt-wait", "commit", "kill", "fact", "done"
    )
    return "\n".join(str(e) for e in interesting)


def timeline_text(kernel: Kernel, outcome) -> str:
    return render_timeline(kernel) + "\n\nwinner: " + str(outcome.value)


def test_figure1_timeline(benchmark):
    kernel, outcome = benchmark.pedantic(run_figure1, iterations=1, rounds=1)
    report("fig1_alternatives", timeline_text(kernel, outcome))

    # diagram properties
    assert outcome.value == "method_2"
    spawn = kernel.trace.of_kind("alt-spawn")[0]
    wait = kernel.trace.of_kind("alt-wait")[0]
    commit = kernel.trace.of_kind("commit")[0]
    kills = kernel.trace.of_kind("kill")
    # start block -> methods -> synchronization -> elimination
    assert spawn.time <= wait.time <= commit.time
    assert len(kills) == 2  # both losing methods eliminated
    assert all(k.time >= commit.time for k in kills)
    # the synchronization happened when the fastest method finished
    assert commit.time == pytest.approx(0.2 + 1.0, rel=0.01)


def test_figure1_failure_path(benchmark):
    """All guards unsatisfied: the failure alternative is selected."""

    def run():
        kernel = Kernel(cpus=4)
        box = {}

        def program(ctx):
            bad = Alternative(
                _method("m", 0.5),
                guard=Guard(name="never", accept=lambda s, v: False),
            )
            out = yield from ctx.run_alternatives([bad, bad])
            box["out"] = out
            return "after-failure"

        kernel.spawn(program, name="main")
        kernel.run()
        return box["out"]

    outcome = benchmark.pedantic(run, iterations=1, rounds=1)
    assert outcome.failed
    assert not outcome.timed_out


@pytest.mark.parametrize(
    "placement",
    [GuardPlacement.BEFORE_SPAWN, GuardPlacement.IN_CHILD, GuardPlacement.AT_SYNC],
    ids=["before-spawn", "in-child", "at-sync"],
)
def test_figure1_guard_placements(benchmark, placement):
    """The figure text: guards may run serially before spawning, in the
    child, or at the synchronization point — same selected result."""

    def run():
        kernel = Kernel(cpus=4)
        box = {}

        def program(ctx):
            guarded = Alternative(
                _method("wrong", 0.2),
                guard=Guard(
                    name="flag-required",
                    check=lambda s: s.get("flag", False),
                    accept=lambda s, v: s.get("flag", False),
                    placement=placement,
                ),
            )
            good = Alternative(_method("right", 1.0))
            out = yield from ctx.run_alternatives([guarded, good])
            box["out"] = out
            return out.value

        kernel.spawn(program, name="main", heap_init={"flag": False})
        kernel.run()
        return box["out"]

    outcome = benchmark.pedantic(run, iterations=1, rounds=1)
    assert outcome.value == "right"


# -- observability smoke (CI: `python bench_fig1_alternatives.py --quick`) ----

def _time_reps(reps: int, batch: int = 1, **kwargs) -> list[float]:
    """Per-run CPU times; each sample times a batch of ``batch`` runs.

    The workload is single-threaded pure CPU, so ``process_time`` is the
    honest clock for an instruction-overhead comparison: it excludes the
    descheduling spikes of a shared host, which otherwise swamp a ~2ms
    run. Batching amortizes the clock's granularity.
    """
    import time as _time

    samples = []
    for _ in range(reps):
        t0 = _time.process_time()
        for _ in range(batch):
            run_figure1(trace=False, **kwargs)
        samples.append((_time.process_time() - t0) / batch)
    return samples


def observability_run(quick: bool = False) -> int:
    """Traced Figure 1 run + exporter validation + overhead measurement.

    Returns a process exit code: non-zero when an exported artifact
    fails schema validation or a metric name is duplicated.
    """
    import os

    from _harness import RESULTS_DIR, mean_std, report
    from repro.obs import Observability
    from repro.obs.export import (
        SchemaError,
        SpeculationReport,
        validate_chrome_trace,
        validate_jsonl,
        validate_metrics,
        write_chrome_trace,
        write_jsonl,
    )

    obs = Observability()
    kernel, outcome = run_figure1(trace=True, obs=obs)
    obs.finalize(kernel.now)
    spec = SpeculationReport.from_kernel(kernel, obs)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    trace_path = os.path.join(RESULTS_DIR, "fig1_obs.trace.json")
    jsonl_path = os.path.join(RESULTS_DIR, "fig1_obs.spans.jsonl")
    write_chrome_trace(obs.tracer, trace_path)
    write_jsonl(obs.tracer, jsonl_path)
    try:
        validate_chrome_trace(trace_path)
        validate_jsonl(jsonl_path)
        validate_metrics(obs.registry)
    except SchemaError as exc:
        print(f"VALIDATION FAILED: {exc}")
        return 1

    # telemetry overhead: bare kernel vs obs-disabled vs obs-enabled.
    # Each sample times a 5-run batch (amortizing scheduler spikes), the
    # three configurations are interleaved per round (host-load drift
    # hits them equally), and the percentage compares the fastest batch
    # of each — min-of-reps, the standard noise-robust estimator for
    # millisecond-scale runs.
    import gc

    reps = 20 if quick else 40
    batch = 5
    _time_reps(2)  # warm-up
    base, off, on = [], [], []
    gc_was_enabled = gc.isenabled()
    gc.disable()  # GC pauses land on random configs otherwise
    try:
        for _ in range(reps):
            gc.collect()
            base += _time_reps(1, batch=batch)
            off += _time_reps(1, batch=batch, obs=Observability(enabled=False))
            on += _time_reps(1, batch=batch, obs=Observability())
    finally:
        if gc_was_enabled:
            gc.enable()
    base_mu, _ = mean_std(base)

    def median(values):
        values = sorted(values)
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return 0.5 * (values[mid - 1] + values[mid])

    # median of per-round paired ratios: each round's bare run is the
    # denominator for that round's instrumented runs, cancelling the
    # common-mode drift that min- or mean-based estimators pick up
    overhead_on = 100.0 * (median(o / b for o, b in zip(on, base)) - 1.0)
    overhead_off = 100.0 * (median(o / b for o, b in zip(off, base)) - 1.0)

    text = "\n".join([
        spec.render(),
        "",
        f"spans recorded: {len(obs.tracer.spans)} (dropped {obs.tracer.dropped})",
        f"exports: {os.path.basename(trace_path)}, {os.path.basename(jsonl_path)} (validated)",
        f"telemetry overhead over {reps} reps: "
        f"enabled {overhead_on:+.1f}%, disabled {overhead_off:+.1f}% "
        f"(bare {base_mu * 1e3:.2f}ms)",
    ])
    report("fig1_observability", text)
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="traced run + exporter validation with few overhead reps (CI smoke)",
    )
    args = parser.parse_args()
    if args.quick:
        sys.exit(observability_run(quick=True))
    kernel, outcome = run_figure1()
    print(render_timeline(kernel))
    print("winner:", outcome.value)
    sys.exit(observability_run(quick=False))
