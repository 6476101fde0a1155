"""Barrier algorithms.

Small communicators use a linear fan-in/fan-out through rank 0
(modeling shared-memory/tuned small-comm barriers); larger ones use a
binomial fan-in + binomial release.  In both, the only pairs that
exchange messages are (rank, tree-parent) — the exCID handshake between
arbitrary rank pairs is *not* completed by a barrier, reproducing the
paper's osu_mbw_mr observation (§IV-C3).

The receives yield ``Wait`` on the posted request themselves, so a rank
waiting in a barrier holds one generator frame for it: the algorithm's.
"""

from __future__ import annotations

from repro.ompi.coll._tree import children_vranks, parent_vrank
from repro.ompi.constants import _TAG_BARRIER
from repro.simtime.process import Wait


def barrier(comm, tag: int = _TAG_BARRIER):
    """Block until all ranks of ``comm`` arrive: returns the algorithm's
    sub-generator (an empty tuple for a one-rank communicator), so the
    caller's ``yield from`` runs it without a frame in between."""
    size = comm.size
    if size == 1:
        return ()
    if size <= comm.runtime.config.barrier_linear_max:
        return _linear_barrier(comm, tag)
    return _tree_barrier(comm, tag)


def _linear_barrier(comm, tag: int):
    if comm.rank == 0:
        for src in range(1, comm.size):
            yield Wait(comm._irecv_internal(src, tag))
        for dst in range(1, comm.size):
            yield from comm._send_internal(None, dst, tag, nbytes=0)
    else:
        yield from comm._send_internal(None, 0, tag, nbytes=0)
        yield Wait(comm._irecv_internal(0, tag))


def _tree_barrier(comm, tag: int):
    """Binomial fan-in to rank 0, binomial fan-out back (root = 0)."""
    rank = comm.rank
    children = children_vranks(rank, comm.size)
    parent = parent_vrank(rank)
    # Fan-in: collect children, then report to parent.
    for child in children:
        yield Wait(comm._irecv_internal(child, tag))
    if parent is not None:
        yield from comm._send_internal(None, parent, tag, nbytes=0)
        yield Wait(comm._irecv_internal(parent, tag))
    # Fan-out: release children.
    for child in children:
        yield from comm._send_internal(None, child, tag, nbytes=0)


def ibarrier_runner(comm, request):
    """Generator run in a helper process to back MPI_Ibarrier."""
    from repro.ompi.coll.nonblocking import runner
    from repro.ompi.constants import _TAG_IBARRIER

    return runner(barrier(comm, tag=_TAG_IBARRIER), request)
