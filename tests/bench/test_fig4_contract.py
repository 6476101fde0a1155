"""Fig 4 as a tier-1 contract (ROADMAP item 1(b)).

Same pattern as ``test_fig3_contract.py``: the ``osu_comm_dup`` port at CI
scale, in simulated time (no ``pytest-benchmark`` fixture), and each failure
quotes the claim it encodes and the tolerance.
"""

from __future__ import annotations

from repro.api import SimSpec, make_world
from repro.bench.osu import osu_comm_dup
from repro.machine.presets import jupiter
from repro.ompi.config import MpiConfig


def test_sessions_dup_is_clearly_slower_than_a_consensus_dup_that_grows():
    sessions = osu_comm_dup(2, 28, "sessions")
    world = osu_comm_dup(2, 28, "world")
    ratio = sessions / world
    assert ratio > 3.0, (
        f"Sessions / MPI_Init MPI_Comm_dup time at 2 nodes x 28 ppn is "
        f"{ratio:.1f} ({sessions:.3e} s / {world:.3e} s).  Paper §IV-C2, "
        "Fig 4: the prototype's dup is clearly slower than the baseline's "
        "consensus dup.  Tolerance: ratio > 3."
    )
    assert 1e-6 < world < 1e-3 and 1e-5 < sessions < 1e-2, (
        f"MPI_Comm_dup per-iteration time out of the credible range: "
        f"MPI_Init {world:.3e} s (us-scale, (1e-6, 1e-3)), Sessions "
        f"{sessions:.3e} s (sub-10 ms, (1e-5, 1e-2)).  Paper Fig 4."
    )
    larger = osu_comm_dup(4, 28, "world")
    assert larger > world, (
        f"consensus MPI_Comm_dup takes {world:.3e} s on 2 nodes and "
        f"{larger:.3e} s on 4 (28 ppn).  Paper Fig 4: the consensus "
        "allreduce cost grows with the communicator size.  Tolerance: none."
    )


def test_each_sessions_dup_acquires_exactly_one_pgcid():
    dups = 5

    def allocated(config, bootstrap):
        world = make_world(spec=SimSpec(nprocs=8, machine=jupiter(2), ppn=4,
                                        config=config))
        dvm = world.cluster.dvm

        def main(mpi):
            comm = yield from bootstrap(mpi)
            before = dvm.pgcids_allocated
            for _ in range(dups):
                dup = yield from comm.dup()
                dup.free()
            yield from comm.barrier()
            return dvm.pgcids_allocated - before

        procs = world.spawn_ranks(main)
        world.run()
        return procs[0].result

    def sessions(mpi):
        session = yield from mpi.session_init()
        group = yield from session.group_from_pset("mpi://world")
        return (yield from mpi.comm_create_from_group(group, "fig4"))

    got = (allocated(MpiConfig.sessions_prototype(), sessions),
           allocated(MpiConfig.baseline(), lambda mpi: mpi.mpi_init()))
    assert got == (dups, 0), (
        f"{dups} MPI_Comm_dup calls allocated {got[0]} PGCIDs under Sessions "
        f"and {got[1]} under MPI_Init.  Paper §IV-C2: the Fig 4 gap is "
        "\"accounted for by the overhead of acquiring a PMIx group context "
        "identifier\" — one per Sessions dup, none for the consensus dup.  "
        "Tolerance: exact."
    )
