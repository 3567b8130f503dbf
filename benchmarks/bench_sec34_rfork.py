"""Section 3.4: remote fork by checkpoint/restart.

"An rfork() of a 70K process requires slightly less than a second, and
network delays gave us an observed average execution time of about 1.3
seconds; ... The major cost was creating a checkpoint of the process."

The calibrated model regenerates those magnitudes; a real checkpoint →
(simulated) ship → forked restart of a 70K-state task measures the same
pipeline with this host's constants; and an image-size sweep shows the
cost structure (checkpoint + transfer scale with size, restart does not).
"""

import os

import pytest

from _harness import report, table
from netmodel.netsim import SimulatedLink
from netmodel.netstore import DemandPagedImage, NetworkStore, breakeven_fraction
from netmodel.rfork import RemoteFork
from repro.analysis.calibration import RFORK_LINK
from repro.memory.store import SingleLevelStore

#: The on-demand image: 70K in 2K pages on the calibrated 1989 link
PAGE = 2048
IMAGE = 70 * 1024


def _task_70k(state):
    return sum(state["payload"][:100])


def model_1989():
    rf = RemoteFork(SimulatedLink(RFORK_LINK))
    return rf.model(70 * 1024)


def size_sweep():
    rf = RemoteFork(SimulatedLink(RFORK_LINK))
    rows = []
    for kib in (10, 35, 70, 140, 280):
        cost = rf.model(kib * 1024)
        rows.append((kib, cost.checkpoint_s, cost.transfer_s,
                     cost.restart_s, cost.total_s))
    return rows


def on_demand():
    """Lazy vs eager transfer of the 70K image by touched fraction, and
    the closed-form breakeven fraction."""
    rows = []
    for fraction in (0.05, 0.2, 0.5, 0.8, 1.0):
        netstore = NetworkStore(
            SingleLevelStore(page_size=PAGE), SimulatedLink(RFORK_LINK)
        )
        image, _ = DemandPagedImage.publish(netstore, "ckpt", bytes(IMAGE))
        reader = image.reader()
        touched = int(fraction * image.pages)
        for page in range(touched):
            reader.read(page * PAGE, 1)
        acct = reader.accounting()
        rows.append(
            (fraction, acct.pages_fetched, acct.transfer_s,
             image.eager_fetch_time())
        )
    link = SimulatedLink(RFORK_LINK)
    return rows, breakeven_fraction(IMAGE, link, PAGE)


def model_text(cost):
    return (
        f"rfork of a 70K process (calibrated 1989 model):\n"
        f"  checkpoint : {cost.checkpoint_s:.3f} s\n"
        f"  transfer   : {cost.transfer_s:.3f} s\n"
        f"  restart    : {cost.restart_s:.3f} s\n"
        f"  total      : {cost.total_s:.3f} s\n"
        "(paper: checkpoint slightly under 1 s; observed total ~1.3 s)"
    )


def sweep_text(rows):
    return table(
        ["KiB", "checkpoint (s)", "transfer (s)", "restart (s)", "total (s)"],
        rows, fmt="8.3f",
    )


def on_demand_text(rows, breakeven):
    text = table(
        ["touch fraction", "pages fetched", "lazy transfer (s)", "eager (s)"],
        rows, fmt="8.3f",
    )
    return text + f"\n\nbreakeven touch fraction on this link: {breakeven:.3f}"


def real_rfork_70k():
    payload = bytes(os.urandom(70 * 1024 - 2048))  # ~70K image after headers
    rf = RemoteFork(SimulatedLink(RFORK_LINK))
    result, cost = rf.execute(_task_70k, {"payload": payload}, name="70k-task")
    return result, cost, payload


def test_rfork_model_1989(benchmark):
    cost = benchmark.pedantic(model_1989, iterations=1, rounds=1)
    report("sec34_rfork_model", model_text(cost))
    assert 0.7 < cost.checkpoint_s < 1.0  # "slightly less than a second"
    assert 1.1 < cost.total_s < 1.6  # "about 1.3 seconds"
    # the checkpoint dominates ("the major cost")
    assert cost.checkpoint_s > cost.transfer_s
    assert cost.checkpoint_s > cost.restart_s


def test_rfork_size_sweep(benchmark):
    rows = benchmark.pedantic(size_sweep, iterations=1, rounds=1)
    report("sec34_rfork_sweep", sweep_text(rows))
    totals = [r[4] for r in rows]
    assert totals == sorted(totals)
    # restart cost is size-independent; checkpoint and transfer are linear
    restarts = {r[3] for r in rows}
    assert len(restarts) == 1
    assert rows[-1][1] / rows[0][1] == pytest.approx(28.0, rel=0.01)


def test_on_demand_vs_eager_migration(benchmark):
    """The paper's closing note on [23]: "more sophisticated migration
    schemes, using 'on-demand' state management techniques". A 70K image
    on the calibrated 1989 link: ship everything up front vs fault pages
    lazily, as a function of how much of the image the restarted process
    actually touches."""
    rows, breakeven = benchmark.pedantic(on_demand, iterations=1, rounds=1)
    report("sec34_rfork_on_demand", on_demand_text(rows, breakeven))

    # sparse restarts: lazy wins; dense restarts: eager wins; the
    # crossover matches the closed form
    for fraction, _, lazy, eager in rows:
        if fraction < breakeven * 0.8:
            assert lazy < eager
        if fraction > min(1.0, breakeven * 1.2):
            assert lazy > eager
    lazies = [r[2] for r in rows]
    assert lazies == sorted(lazies)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_real_rfork_pipeline(benchmark):
    result, cost, payload = benchmark.pedantic(real_rfork_70k, iterations=1, rounds=1)
    text = (
        f"real checkpoint -> simulated ship -> forked restart on this host:\n"
        f"  image size : {cost.image_bytes} bytes\n"
        f"  checkpoint : {cost.checkpoint_s * 1000:.3f} ms (real)\n"
        f"  transfer   : {cost.transfer_s:.3f} s (simulated 1989 link)\n"
        f"  restart    : {cost.restart_s * 1000:.3f} ms (real fork+run)\n"
    )
    report("sec34_rfork_real_host", text)
    assert result == sum(payload[:100])
    assert 60_000 <= cost.image_bytes <= 80_000
    # the simulated link still charges 1989 prices for the ship
    assert cost.transfer_s == pytest.approx(
        RFORK_LINK.latency_s + cost.image_bytes / RFORK_LINK.bandwidth_bytes_s
    )
    # modern checkpointing crushes the 1989 second
    assert cost.checkpoint_s < 0.85


if __name__ == "__main__":
    print(model_1989())
    for row in size_sweep():
        print(row)
