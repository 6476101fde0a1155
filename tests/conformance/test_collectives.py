"""Collective rows of docs/conformance.md (the xDSL MPI-dialect table's
"Collectives"), each checked against the MPI-4.0 clause named in its
docstring, over every way of obtaining a communicator."""

import pytest

from repro.ompi.constants import MAX, SUM
from repro.simtime.process import Sleep
from tests.conformance.adapter import WAYS, run

pytestmark = pytest.mark.parametrize("way", WAYS)


def test_barrier_waits_for_the_last_arrival(way):
    """MPI-4.0 §6.3 (MPI_BARRIER): "blocks the caller until all group
    members have called it"."""
    def body(mpi, comm):
        yield Sleep(1e-3 * comm.rank)
        arrived = mpi.wtime()
        yield from comm.barrier()
        return (arrived, mpi.wtime())

    results = run(way, body)
    last = max(arrived for arrived, _ in results)
    assert all(left >= last for _, left in results)


def test_ibarrier_completes_after_every_rank_started_it(way):
    """MPI-4.0 §6.12.1 (MPI_IBARRIER): the request completes only after
    all group members have called MPI_IBARRIER."""
    def body(mpi, comm):
        yield Sleep(1e-3 * comm.rank)
        started = mpi.wtime()
        req = yield from comm.ibarrier()
        yield from req.wait()
        return (started, mpi.wtime())

    results = run(way, body)
    last = max(started for started, _ in results)
    assert all(done >= last for _, done in results)


def test_bcast_copies_the_root_buffer(way):
    """MPI-4.0 §6.4 (MPI_BCAST): the root's buffer is copied to all
    processes of the group."""
    def body(mpi, comm):
        root = comm.size - 1
        value = {"root": comm.rank} if comm.rank == root else None
        return (yield from comm.bcast(value, root=root))

    results = run(way, body)
    assert results == [{"root": len(results) - 1}] * len(results)


def test_gather_collects_in_rank_order(way):
    """MPI-4.0 §6.5 (MPI_GATHER): the root receives every process's
    contribution, "stored in rank order"; the receive buffer is
    significant only at the root."""
    def body(mpi, comm):
        return (yield from comm.gather(comm.rank * 2, root=1))

    results = run(way, body)
    assert results[1] == [r * 2 for r in range(len(results))]
    assert all(results[r] is None for r in range(len(results)) if r != 1)


def test_allgather_gives_every_rank_every_contribution(way):
    """MPI-4.0 §6.7 (MPI_ALLGATHER): like MPI_GATHER, except that all
    processes receive the result, in rank order."""
    def body(mpi, comm):
        return (yield from comm.allgather(comm.rank + 100))

    results = run(way, body)
    assert results == [[r + 100 for r in range(len(results))]] * len(results)


def test_alltoall_delivers_block_j_of_i_to_j(way):
    """MPI-4.0 §6.8 (MPI_ALLTOALL): "The j-th block sent from process i
    is received by process j and is placed in the i-th block of
    recvbuf"."""
    def body(mpi, comm):
        return (yield from comm.alltoall([(comm.rank, j) for j in range(comm.size)]))

    results = run(way, body)
    n = len(results)
    assert results == [[(i, j) for i in range(n)] for j in range(n)]


def test_allreduce_gives_every_rank_the_reduction(way):
    """MPI-4.0 §6.9.6 (MPI_ALLREDUCE) with the predefined MPI_SUM and
    MPI_MAX (§6.9.2): every process receives the reduction of all
    contributions."""
    def body(mpi, comm):
        total = yield from comm.allreduce(comm.rank + 1, op=SUM)
        top = yield from comm.allreduce(comm.rank, op=MAX)
        return (total, top)

    results = run(way, body)
    n = len(results)
    assert results == [(n * (n + 1) // 2, n - 1)] * n
