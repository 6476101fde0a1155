"""Fig 6 as a tier-1 contract (ROADMAP item 1(b)).

Same pattern as ``test_fig3_contract.py``/``test_fig4_contract.py``: the
HPCC ring-latency port at the figure's ``quick`` scale (2 nodes x 28 ppn),
in simulated time (no ``pytest-benchmark`` fixture), and each failure
quotes the claim it encodes and the tolerance.
"""

from __future__ import annotations

import pytest

from repro.bench import figures
from repro.bench.hpcc import hpcc_ring_latency


@pytest.mark.parametrize("ordering", ["random", "natural"])
def test_fig6_ring_latency_is_the_same_under_sessions(ordering):
    ratios = figures.fig6(ordering, quick=True).ratio("Sessions", "MPI_Init")
    off = [(nodes, round(r, 4)) for nodes, r in ratios if not 0.95 < r < 1.05]
    assert not off, (
        f"HPCC 8-byte {ordering}-order ring latency, Sessions / MPI_Init by "
        f"node count: {[(n, round(r, 4)) for n, r in ratios]}.  Paper §IV-D, "
        "Fig 6: \"the latencies obtained using sessions are practically "
        "identical\" to the baseline, for both ring orderings.  Tolerance: "
        "every ratio inside (0.95, 1.05)."
    )


def test_a_random_ring_is_clearly_slower_than_the_natural_one():
    natural = hpcc_ring_latency(2, 28, "world", "natural")
    rand = hpcc_ring_latency(2, 28, "world", "random")
    assert rand > 1.3 * natural, (
        f"HPCC ring latency at 2 nodes x 28 ppn under MPI_Init: random "
        f"{rand:.3e} s, natural {natural:.3e} s (ratio {rand / natural:.2f}).  "
        "Paper §IV-D, Fig 6a vs 6b: a random ordering crosses nodes on almost "
        "every hop, a natural one only at the node boundary.  Tolerance: "
        "random > 1.3 x natural."
    )
