"""HPC Challenge bandwidth/latency ring test (paper §IV-D, Fig 6).

As in the paper's modified HPCC 1.5.0, the application initializes MPI
with MPI_Init (World Process Model) and *only* the latency/bandwidth
component (``main_bench_lat_bw``) opens its own MPI Session, creating
the ring communicator with ``MPI_Comm_create_from_group`` — the
compartmentalization demonstration.  The baseline runs the same rings
on MPI_COMM_WORLD under the baseline build.

Measured quantity: 8-byte ring latency, natural order and random
order(s), averaged per hop.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.api import SimSpec, run_mpi
from repro.machine.presets import jupiter
from repro.ompi.config import MpiConfig

RING_MSG_BYTES = 8


def _ring_pass(comm, order: List[int], iterations: int):
    """Sub-generator: per-hop latency of an 8-byte message circulating
    the ring ``iterations`` times.

    ``order`` is the ring permutation: order[i] passes to
    order[(i+1) % n].  A serial circulation makes the ordering visible:
    a natural-order ring crosses nodes only at node boundaries, while a
    random-order ring pays the inter-node latency on nearly every hop —
    the classic natural-vs-random gap HPCC reports.
    """
    n = len(order)
    pos = order.index(comm.rank)
    right = order[(pos + 1) % n]
    left = order[(pos - 1) % n]
    yield from comm.barrier()
    t0 = comm.runtime.engine.now
    for _ in range(iterations):
        if pos == 0:
            yield from comm.send(None, right, tag=11, nbytes=RING_MSG_BYTES)
            yield from comm.recv(left, tag=11)
        else:
            yield from comm.recv(left, tag=11)
            yield from comm.send(None, right, tag=11, nbytes=RING_MSG_BYTES)
    elapsed = comm.runtime.engine.now - t0
    return elapsed / (n * iterations)


def hpcc_ring_latency(
    nodes: int,
    ppn: int,
    mode: str,
    ordering: str = "natural",
    iterations: int = 12,
    n_random_orders: int = 3,
    machine_factory=jupiter,
    seed: int = 20190923,
) -> float:
    """8-byte ring latency in seconds for one configuration.

    ``mode="world"`` uses the baseline build on MPI_COMM_WORLD;
    ``mode="sessions"`` keeps MPI_Init for the app but runs the ring on
    a sessions-derived communicator (the paper's modification).
    """
    if ordering not in ("natural", "random"):
        raise ValueError(f"unknown ordering {ordering!r}")
    machine = machine_factory(nodes)
    nprocs = nodes * ppn
    config = MpiConfig.sessions_prototype() if mode == "sessions" else MpiConfig.baseline()
    spec = SimSpec(nprocs=nprocs, machine=machine, ppn=ppn, config=config)
    results: List[float] = []

    orders: List[List[int]] = []
    if ordering == "natural":
        orders.append(list(range(nprocs)))
    else:
        rng = random.Random(seed)
        for _ in range(n_random_orders):
            perm = list(range(nprocs))
            rng.shuffle(perm)
            orders.append(perm)

    def main(mpi):
        # The application proper uses the World Process Model...
        yield from mpi.mpi_init()
        if mode == "sessions":
            # ...and main_bench_lat_bw opens its own session for the ring.
            session = yield from mpi.session_init()
            group = yield from session.group_from_pset("mpi://world")
            comm = yield from mpi.comm_create_from_group(group, "hpcc-latbw")
        else:
            comm = mpi.COMM_WORLD
        for order in orders:
            lat = yield from _ring_pass(comm, order, iterations)
            # The ring's origin rank observes full circulations.
            if comm.rank == order[0]:
                results.append(lat)
        if mode == "sessions":
            comm.free()
            yield from session.finalize()
        yield from mpi.mpi_finalize()

    run_mpi(spec, main)
    return sum(results) / len(results)
