"""Large-scale fig3-init benches (1k-4k simulated ranks).

Marked ``slow``: excluded from tier-1 by the default ``-m "not slow"``
addopts; run with ``pytest -m slow tests/bench/test_fig3_scale.py``.
Each point runs the full Sessions-init stack once and holds the
determinism contract (a pinned logical event count and final clock,
beyond the sizes the frozen-bytes corpus covers) plus a sanity floor on
throughput at scale.
"""

from __future__ import annotations

import time

import pytest

from repro.obs.scenarios import run_scenario

pytestmark = [pytest.mark.slow, pytest.mark.bench]


@pytest.mark.parametrize(
    "nodes,ppn,events,t_end",
    [(64, 16, 32680, 0.8211529503639444),     # 1024 ranks
     (128, 32, 128872, 0.997376639240384)],   # 4096 ranks
    ids=["1k-ranks", "4k-ranks"],
)
def test_fig3_init_at_scale(nodes, ppn, events, t_end):
    t0 = time.perf_counter()
    run = run_scenario("fig3-init", nodes=nodes, ppn=ppn)
    wall = time.perf_counter() - t0
    got = run.cluster.engine.events_executed
    assert (got, run.t_end) == (events, t_end), (
        f"simulated bytes moved at {nodes}x{ppn}: events {got}, "
        f"t_end {run.t_end!r}")
    # Throughput floor: catastrophic scaling regressions (the engine
    # falling to interpreter-loop speeds) trip this.
    assert got / wall > 500, f"fig3-init at {nodes}x{ppn}: {got / wall:,.0f} ev/s"
