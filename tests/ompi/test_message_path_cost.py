"""Deterministic cost gate: interpreted work per ob1 packet.

The number of Python-level calls made inside ``src/repro`` repeats
exactly (``tests/_callcount.py``).  An 8-rank jupiter 2x4 program mixes
the three shapes the message benchmarks are made of — a 64-byte
``isend``/``irecv`` ring (eager, nonblocking), a 100 000-byte cross-node
``send``/``recv`` (rendezvous: RTS, CTS, data) and an 8-byte
``allreduce`` — and is run for 100 and for 300 iterations; the
*marginal* calls per packet between the two runs leave out world
construction and init.  The simulation itself must not move: packets and
executed events are pinned to the values the program produced before the
message path was slimmed (docs/performance.md, "Cost of one message").
"""

from __future__ import annotations

import pytest

from repro.api import SimSpec, make_world
from repro.machine.presets import jupiter
from repro.ompi.config import MpiConfig
from repro.ompi.constants import SUM
from repro.ompi.request import waitall
from tests._callcount import counting_calls

#: 74.4 before the one-send-start / single-callback / handle-free-post
#: change, 51.9 after it, 34.8 with the request as its own event and
#: posted receive; the slack is for deliberate small additions.
MAX_CALLS_PER_PACKET = 40

#: config -> iterations -> (Fabric.packets, Engine.events_executed),
#: recorded at the commit before that change.
SIMULATED = {
    "world": {100: (4400, 15448), 300: (13200, 45948)},
    "sessions": {100: (4416, 15459), 300: (13216, 45859)},
}


def program(iterations: int, sessions: bool):
    def main(mpi):
        if sessions:
            session = yield from mpi.session_init()
            group = yield from session.group_from_pset("mpi://world")
            comm = yield from mpi.comm_create_from_group(group, "cost")
        else:
            comm = yield from mpi.mpi_init()
        rank, size = comm.rank, comm.size
        half = size // 2
        total = 0
        for i in range(iterations):
            rreq = comm.irecv((rank - 1) % size, 7)
            sreq = yield from comm.isend(i, (rank + 1) % size, 7, nbytes=64)
            yield from waitall([sreq, rreq])
            if rank < half:                      # ranks 0-3 are on node 0
                yield from comm.send(i, rank + half, 9, nbytes=100_000)
            else:
                yield from comm.recv(rank - half, 9)
            total += yield from comm.allreduce(1, SUM, nbytes=8)
        if sessions:
            comm.free()
            yield from session.finalize()
        else:
            yield from mpi.mpi_finalize()
        return total

    return main


def measure(config: str, iterations: int):
    """(call tally, packets, events executed) of one run."""
    sessions = config == "sessions"
    mpi_config = MpiConfig.sessions_prototype() if sessions else MpiConfig.baseline()
    with counting_calls() as tally:
        world = make_world(SimSpec(nprocs=8, machine=jupiter(2), ppn=4,
                                   config=mpi_config))
        procs = world.spawn_ranks(program(iterations, sessions))
        world.run()
    for proc in procs:
        if proc.exception is not None:
            raise proc.exception
    assert [proc.result for proc in procs] == [8 * iterations] * 8
    return tally, world.fabric.packets, world.cluster.engine.events_executed


@pytest.mark.parametrize("config", sorted(SIMULATED))
def test_calls_per_packet(config):
    short, short_packets, short_events = measure(config, 100)
    long, long_packets, long_events = measure(config, 300)
    assert (short_packets, short_events) == SIMULATED[config][100]
    assert (long_packets, long_events) == SIMULATED[config][300]

    packets = long_packets - short_packets
    marginal = long.copy()
    marginal.subtract(short)
    per_packet = marginal.total / packets
    assert per_packet <= MAX_CALLS_PER_PACKET, (
        f"{config}: {per_packet:.1f} Python calls inside src/repro per ob1 "
        f"packet (limit {MAX_CALLS_PER_PACKET}); calls per packet by "
        f"function:\n{marginal.top(10, per=packets)}"
    )
