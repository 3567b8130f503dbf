"""Print the ledger ratchets' measured counts as one JSON line.

Run from the repository root::

    PYTHONPATH=src python -m tests.ratchet_counts

The counts are what ``tests/integration/test_ledger_ratchet.py`` holds
to its ceilings, measured by the same functions: per request through a
real shard host (durable appends, journal records, journal bytes, bytes
the client receives), the admit frame's bytes, the budget's wasted
wake-ups, the locks and lines of ``serve/`` + ``cluster/``, the lines of
``src/`` and the settable values on the serving path.
"""

import json
import tempfile

from tests.integration import test_ledger_ratchet as ratchet


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
        "locks": len(ratchet.serve_and_cluster_locks()),
        "serve_cluster_lines": ratchet.serve_and_cluster_lines(),
        "src_lines": ratchet.src_lines(),
        "settable_values": len(ratchet.settable_values()),
    }))


if __name__ == "__main__":
    main()
