"""Print the ledger ratchets' measured counts as one JSON line.

Run from the repository root::

    PYTHONPATH=src python -m tests.ratchet_counts

The counts are what ``tests/integration/test_ledger_ratchet.py`` holds
to its ceilings, measured by the same functions: per request through a
real shard host (durable appends, journal records, journal bytes, bytes
the client receives), the admit frame's bytes, the budget's wasted
wake-ups and lone slots granted to a head whose gang is out, per fork
block the forks, reaps on the caller's path and report bytes, the locks
and lines of ``serve/`` + ``cluster/``, the lines of ``src/`` and the
settable values on the serving path. Two tracked figures with no
ceiling follow: the lines of ``tests/`` and tier-1's collected tests.
"""

import json
import re
import subprocess
import sys
import tempfile

from tests.integration import test_ledger_ratchet as ratchet


def tests_lines() -> int:
    return sum(
        len(path.read_text().splitlines())
        for path in (ratchet.SRC.parents[1] / "tests").rglob("*.py")
    )


def tier1_tests() -> int:
    """The tests tier-1 (``python -m pytest`` from the root) collects."""
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only"],
        cwd=ratchet.SRC.parents[1], capture_output=True, text=True, check=True,
    ).stdout
    return int(re.search(r"(\d+) tests? collected", out).group(1))


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="mw-ratchet-") as workdir:
        host = ratchet.per_request_through_a_host(workdir)
        (admit_frame_bytes,) = ratchet.admit_frame_sizes(f"{workdir}/admit")
    print(json.dumps({
        "appends": host["appends"],
        "records": host["records"],
        "journal_bytes": host["journal bytes"],
        "admit_frame_bytes": admit_frame_bytes,
        "received_bytes": host["received bytes"],
        "budget_waiter_misses": ratchet.budget_waiter_misses(),
        "budget_lone_slots_to_the_head": ratchet.budget_lone_slots_to_the_head(),
        **{
            f"fork_block_{k.replace(' ', '_')}": v
            for k, v in ratchet.fork_block_counts().items()
        },
        "locks": len(ratchet.serve_and_cluster_locks()),
        "serve_cluster_lines": ratchet.serve_and_cluster_lines(),
        "src_lines": ratchet.src_lines(),
        "settable_values": len(ratchet.settable_values()),
        "tests_lines": tests_lines(),
        "tier1_tests": tier1_tests(),
    }))


if __name__ == "__main__":
    main()
