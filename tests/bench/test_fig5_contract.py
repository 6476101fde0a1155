"""Fig 5 as a tier-1 contract (ROADMAP item 1(b)).

Same pattern as ``test_fig3_contract.py``/``test_fig4_contract.py``: the
``osu_latency``/``osu_mbw_mr`` ports at the figures' ``quick`` scale, in
simulated time (no ``pytest-benchmark`` fixture), and each failure quotes
the claim it encodes and the tolerance.
"""

from __future__ import annotations

from repro.bench import figures


def _ratios(result):
    """(series label, message size, Sessions/MPI_Init ratio) of a figure."""
    return [(label, size, ratio) for label, series in result.series.items()
            for size, ratio in series.points]


def test_fig5a_on_node_latency_is_unchanged_and_sometimes_better():
    points = _ratios(figures.fig5a(quick=True))
    off = [(size, round(r, 4)) for _l, size, r in points if not 0.9 < r < 1.1]
    assert not off and any(r <= 1.0 for _l, _s, r in points), (
        f"Sessions / MPI_Init on-node osu_latency ratio by size: "
        f"{[(s, round(r, 4)) for _l, s, r in points]}; outside the band: {off}.  "
        "Paper §IV-C3, Fig 5a: Sessions has \"a small effect on latency — in "
        "some cases showing an improvement\".  Tolerance: every ratio inside "
        "(0.9, 1.1) and at least one <= 1."
    )


def test_fig5b_two_processes_switch_to_local_cids_before_the_timed_loop():
    off = [(label, size, round(r, 4))
           for label, size, r in _ratios(figures.fig5b(quick=True))
           if not 0.95 < r < 1.05]
    assert not off, (
        f"osu_mbw_mr with 1 pair, Sessions / MPI_Init outside the band: {off}.  "
        "Paper §IV-C3, Fig 5b: with 2 processes the pre-loop barrier completes "
        "the exCID -> local-CID handshake, so bandwidth and message rate are "
        "identical.  Tolerance: every ratio inside (0.95, 1.05)."
    )


def test_fig5c_sixteen_processes_pay_the_handshake_at_small_sizes_only():
    rate = figures.fig5c(quick=True).series[
        "Sessions/MPI_Init message-rate ratio"].points
    (small_size, small), (large_size, large) = rate[0], rate[-1]
    assert small < 0.95 and 0.95 < large < 1.05, (
        f"osu_mbw_mr with 8 pairs, Sessions / MPI_Init message-rate ratio is "
        f"{small:.4f} at {small_size} B and {large:.4f} at {large_size} B.  "
        "Paper §IV-C3, Fig 5c: the barrier does not pre-switch the test pairs, "
        "so the first window carries the extended header and Sessions lags at "
        "small sizes; large messages amortise it.  Tolerance: smallest size "
        "< 0.95, largest inside (0.95, 1.05)."
    )


def test_fig5c_a_sendrecv_pre_sync_restores_parity():
    off = [(label, size, round(r, 4))
           for label, size, r in _ratios(figures.fig5c(quick=True, presync=True))
           if not 0.95 < r < 1.05]
    assert not off, (
        f"osu_mbw_mr with 8 pairs and an MPI_Sendrecv pre-sync, Sessions / "
        f"MPI_Init outside the band: {off}.  Paper §IV-C3, Fig 5c: with the "
        "pre-synchronisation the rates are \"essentially identical\".  "
        "Tolerance: every ratio inside (0.95, 1.05)."
    )
