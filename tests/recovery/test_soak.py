"""Survivable chaos soak: every seeded run must recover (docs/recovery.md).

Each seed drives a full MPI job through a survivable fault plan — proc
kills, one node kill, a lossy RML link, message drop/delay/dup — and the
job must shrink around the damage and finish a correct allreduce over
the shrunk communicator, inside the simulated-time bound, with a
byte-deterministic outcome per seed.

The 20-seed sweep here is the tier-1 slice; ``python -m repro recovery``
runs the full 50-seed acceptance soak.
"""

from __future__ import annotations

import pytest

from repro.obs.export import chrome_trace, dumps
from repro.recovery import SIM_BOUND, digest, soak_run
from repro.simtime.trace import Tracer

pytestmark = pytest.mark.recovery


@pytest.mark.parametrize("seed", range(20))
def test_chaos_soak_survives(seed):
    rec = soak_run(seed)
    assert rec["ok"], rec["errors"]
    assert rec["bounded"] and rec["t_end"] < SIM_BOUND
    # The guaranteed lossy link means reliability really did work.
    assert rec["retransmits"] > 0
    # Survivors agreed, shrank to one size, and got fresh CIDs.
    assert rec["shrinks"] == rec["survivors"] > 0
    assert len(rec["shrunk_sizes"]) == 1
    assert rec["fresh_cids"]


def test_soak_deterministic_digest():
    a, b = soak_run(4), soak_run(4)
    assert a["digest"] == b["digest"]
    assert digest(a) == a["digest"]


def test_soak_trace_byte_identical():
    def once():
        tracer = Tracer()
        soak_run(6, tracer=tracer)
        return dumps(chrome_trace(tracer))

    assert once() == once()


def test_soak_message_faults_only():
    # No guaranteed node kill: message-layer chaos must also recover.
    rec = soak_run(11, with_node_kill=False)
    assert rec["ok"], rec["errors"]
    assert rec["retransmits"] > 0
