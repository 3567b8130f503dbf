"""The §3.4 and network-robustness tables regenerate byte for byte.

Each deterministic table is recomputed through its bench's own functions
and compared with the committed file under ``benchmarks/results/``;
nothing is rewritten. ``sec34_rfork_real_host`` is host timing and is
not pinned.

The benches are imported by the module path ``pytest benchmarks/`` gives
them, which writes the committed files: a remote fork's retry jitter is
keyed on its image's payload, and a pickled task names its module.
"""

import pathlib

import pytest

import benchmarks.bench_robustness_network as network
import benchmarks.bench_sec34_rfork as rfork

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"

TABLES = {
    "sec34_rfork_model": lambda: rfork.model_text(rfork.model_1989()),
    "sec34_rfork_sweep": lambda: rfork.sweep_text(rfork.size_sweep()),
    "sec34_rfork_on_demand": lambda: rfork.on_demand_text(*rfork.on_demand()),
    "robustness_network_link": lambda: network.link_text(network.sweep_link_loss()),
    "robustness_network_lease": lambda: network.crash_text(network.sweep_remote_crash()),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_committed_table_regenerates_identically(name):
    assert TABLES[name]() + "\n" == (RESULTS / f"{name}.txt").read_text()


def test_link_loss_sweep_is_deterministic():
    """A retry's backoff jitter is keyed on the task, not on when its
    image was captured, so two sweeps agree to the last bit."""
    rates, seeds = network.QUICK_RATES, network.QUICK_SEEDS
    assert network.sweep_link_loss(rates, seeds) == network.sweep_link_loss(rates, seeds)
