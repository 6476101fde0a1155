"""Large-scale fig3-init benches (1k-4k simulated ranks).

Marked ``slow``: excluded from tier-1 by the default ``-m "not slow"``
addopts; run with ``pytest -m slow tests/bench/test_fig3_scale.py``.
Each point runs the full Sessions-init stack fast and compat once and
holds the determinism contract (identical logical event counts) plus a
sanity floor on fast-path throughput at scale.
"""

from __future__ import annotations

import time

import pytest

from repro.obs.scenarios import run_scenario

pytestmark = [pytest.mark.slow, pytest.mark.bench]


def _events(nodes, ppn, compat):
    run = run_scenario("fig3-init", nodes=nodes, ppn=ppn, engine_compat=compat)
    return run.cluster.engine.events_executed


@pytest.mark.parametrize(
    "nodes,ppn",
    [(64, 16),    # 1024 ranks
     (128, 32)],  # 4096 ranks — the top of the ISSUE's scale band
    ids=["1k-ranks", "4k-ranks"],
)
def test_fig3_init_at_scale(nodes, ppn):
    t0 = time.perf_counter()
    ev_fast = _events(nodes, ppn, False)
    t_fast = time.perf_counter() - t0
    ev_compat = _events(nodes, ppn, True)
    assert ev_fast == ev_compat, (
        f"event counts diverged at {nodes}x{ppn}: "
        f"fast={ev_fast} compat={ev_compat}"
    )
    assert ev_fast > nodes * ppn  # the run actually exercised every rank
    # Throughput floor: catastrophic scaling regressions (the fast path
    # falling to interpreter-loop speeds) trip this.
    assert ev_fast / t_fast > 500, (
        f"fig3-init at {nodes}x{ppn}: {ev_fast / t_fast:,.0f} ev/s"
    )
