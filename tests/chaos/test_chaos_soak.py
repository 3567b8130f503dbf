"""Always-on subset of the cross-layer chaos soak.

CI's nightly ``chaos-soak`` job runs the full 25-seed matrix via
``python -m repro.chaos``; this is the tier-1 slice — a few short
seeded runs that still compose every fault site with cold restarts and
check the full invariant set. ``CHAOS_SOAK_SEEDS`` raises the count.
"""

import os

import pytest

from repro.chaos import SoakConfig, SoakReport, Violation, expected_value, run_soak
from repro.chaos.__main__ import main as chaos_main

SEEDS = range(int(os.environ.get("CHAOS_SOAK_SEEDS", "3")))


def _quick(seed, **overrides):
    kwargs = dict(seed=seed, episodes=2, requests_per_episode=6)
    kwargs.update(overrides)
    return SoakConfig(**kwargs)


@pytest.mark.parametrize("seed", SEEDS)
def test_soak_seed_holds_invariants(seed):
    report = run_soak(_quick(seed))
    assert report.ok, [v.as_dict() for v in report.violations]
    assert report.acked > 0
    assert report.committed > 0
    # the schedule always exercises the restart path: one compaction
    # boundary per compact_every episodes plus the final durability kill
    assert report.restarts >= 2
    # every committed request's value was checked byte-identical against
    # expected_value inside the harness; spot-check the function is the
    # derivation the docstring promises
    assert expected_value(5) == 5 * 7 + 3


def test_soak_file_backed_journals(tmp_path):
    report = run_soak(_quick(1, storage_dir=str(tmp_path)))
    assert report.ok, [v.as_dict() for v in report.violations]
    assert (tmp_path / "shard-0.wal").exists()


def test_soak_without_faults_commits_everything():
    report = run_soak(_quick(2, rates={}))
    assert report.ok, [v.as_dict() for v in report.violations]
    # no injected faults: every submission is acked and committed, the
    # only restarts are the scheduled compaction boundaries + final kill,
    # and nothing was ever quarantined
    assert report.acked == report.submitted
    assert report.committed == report.acked
    assert report.quarantines == 0
    assert report.shard_crashes == 0


def test_report_shape_roundtrips():
    report = run_soak(_quick(0))
    doc = report.as_dict()
    assert doc["seed"] == 0
    assert doc["ok"] is report.ok
    assert isinstance(doc["violations"], list)
    v = Violation(kind="test", episode=1, detail="shape check")
    assert v.as_dict() == {"kind": "test", "episode": 1, "detail": "shape check"}
    assert isinstance(report, SoakReport)


def test_cli_quick_exits_zero(tmp_path, capsys):
    rc = chaos_main([
        "--quick", "--seeds", "1",
        "--json", str(tmp_path / "soak.json"),
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "[ok ]" in out
    assert (tmp_path / "soak.json").exists()
