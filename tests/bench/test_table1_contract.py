"""Table I as a tier-1 contract (ROADMAP item 1(b)).

The two machine presets are what every figure contract runs on; their
assertions lived in ``benchmarks/test_table1_machines.py``, which tier-1
never collects.  Same pattern as ``test_fig3_contract.py``: no
``pytest-benchmark`` (nothing here takes time), and each failure quotes
the claim it encodes and the tolerance.
"""

from __future__ import annotations

from repro.bench import figures
from repro.machine.presets import jupiter, trinity


def test_table1_names_both_systems():
    text = "\n".join(figures.table1().notes)
    assert "Trinity" in text and "Jupiter" in text, (
        f"rendered Table I is:\n{text}\nPaper Table I lists the two systems "
        "of the study, Trinity (Cray XC40) and Jupiter (Cray XC30); both "
        "names must appear.  Tolerance: none."
    )


def test_table1_core_counts():
    cores = (trinity(1).cores_per_node, jupiter(1).cores_per_node)
    assert cores == (32, 28), (
        f"cores per node are trinity {cores[0]}, jupiter {cores[1]}.  Paper "
        "Table I: Trinity nodes are 2 x 16-core Haswell (32), Jupiter nodes "
        "2 x 14-core (28) — the 28 ppn of Figs 3b, 4 and 6 is one Jupiter "
        "node full.  Tolerance: exact."
    )


def test_table1_aries_like_network():
    for machine in (trinity(1), jupiter(1)):
        lat, bw = machine.inter_node_latency, machine.inter_node_bandwidth
        assert lat < 3e-6 and bw > 5e9, (
            f"{machine.name}: inter-node latency {lat * 1e6:.2f} us, bandwidth "
            f"{bw / 1e9:.1f} GB/s.  Paper Table I: both systems use the Cray "
            "Aries interconnect — low single-digit-microsecond latency, "
            "several GB/s per link.  Tolerance: latency < 3 us, bandwidth "
            "> 5 GB/s."
        )
