"""CLI for the chaos soak: ``python -m repro.chaos --seeds 25``.

Exits non-zero when any seed ends with an invariant violation, printing
one line per seed and a closing summary — the shape CI consumes (the
nightly ``chaos-soak`` job runs the full seed matrix; PRs run
``--quick``). ``--artifacts DIR`` dumps the journals and the structured
report of every failing seed for post-mortem.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.chaos.soak import SoakConfig, run_soak


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Seeded cross-layer chaos soak for the speculation cluster.",
    )
    parser.add_argument("--seeds", type=int, default=25,
                        help="number of seeds to run (default 25)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="first seed (seeds run base..base+N-1)")
    parser.add_argument("--quick", action="store_true",
                        help="PR-sized smoke: 3 seeds, 2 short episodes each")
    parser.add_argument("--episodes", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per episode")
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--storage-dir", default=None,
                        help="file-backed journals under this directory")
    parser.add_argument("--remote-kills", type=int, default=None,
                        help="real-process kill incarnations per seed: "
                             "shard hosts SIGKILLed mid-burst, then the "
                             "cross-journal exactly-once audit (default 1)")
    parser.add_argument("--artifacts", default=None,
                        help="dump journals + reports of failing seeds here")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the full run summary as JSON")
    args = parser.parse_args(argv)

    seeds = args.seeds
    episodes = args.episodes
    requests = args.requests
    if args.quick:
        seeds = min(seeds, 3)
        episodes = episodes if episodes is not None else 2
        requests = requests if requests is not None else 6

    reports = []
    failed = 0
    t0 = time.monotonic()
    for seed in range(args.base_seed, args.base_seed + seeds):
        kwargs = dict(seed=seed, artifact_dir=args.artifacts)
        if episodes is not None:
            kwargs["episodes"] = episodes
        if requests is not None:
            kwargs["requests_per_episode"] = requests
        if args.shards is not None:
            kwargs["shards"] = args.shards
        if args.storage_dir is not None:
            kwargs["storage_dir"] = f"{args.storage_dir}/seed-{seed}"
        kwargs["remote_kills"] = (
            args.remote_kills if args.remote_kills is not None else 1
        )
        report = run_soak(SoakConfig(**kwargs))
        reports.append(report)
        mark = "ok " if report.ok else "FAIL"
        print(
            f"[{mark}] seed {seed:3d}  acked {report.acked:3d}  "
            f"committed {report.committed:3d}  restarts {report.restarts:2d}  "
            f"shard-crashes {report.shard_crashes:2d}  "
            f"host-kills {report.remote_kills}  "
            f"compactions {report.compactions}  "
            f"quarantines {report.quarantines}  "
            f"violations {len(report.violations)}"
        )
        if not report.ok:
            failed += 1
            for violation in report.violations:
                print(f"       - {violation.kind}: {violation.detail}")

    elapsed = time.monotonic() - t0
    total_acked = sum(r.acked for r in reports)
    total_committed = sum(r.committed for r in reports)
    summary = (
        f"{seeds} seeds in {elapsed:.1f}s: {seeds - failed} ok, "
        f"{failed} failed; {total_acked} acked, {total_committed} committed, "
        f"{sum(r.restarts for r in reports)} cold restarts, "
        f"{sum(r.quarantines for r in reports)} quarantines"
    )
    print(f"\n{summary}")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "seeds": seeds,
                    "failed": failed,
                    "elapsed_s": elapsed,
                    "reports": [r.as_dict() for r in reports],
                },
                fh, indent=2, default=str,
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
