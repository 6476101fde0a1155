"""Barrier algorithms.

Small communicators use a linear fan-in/fan-out through rank 0
(modeling shared-memory/tuned small-comm barriers); larger ones use a
binomial fan-in + binomial release.  In both, the only pairs that
exchange messages are (rank, tree-parent) — the exCID handshake between
arbitrary rank pairs is *not* completed by a barrier, reproducing the
paper's osu_mbw_mr observation (§IV-C3).
"""

from __future__ import annotations

from repro.ompi.coll._tree import children_vranks, parent_vrank
from repro.ompi.constants import _TAG_BARRIER


def barrier(comm, tag: int = _TAG_BARRIER):
    """Sub-generator: block until all ranks of ``comm`` arrive."""
    size = comm.size
    if size == 1:
        return
    if size <= comm.runtime.config.barrier_linear_max:
        yield from _linear_barrier(comm, tag)
    else:
        yield from _tree_barrier(comm, tag)


def _linear_barrier(comm, tag: int):
    rank, size = comm.rank, comm.size
    if rank == 0:
        for src in range(1, size):
            yield from comm._recv_internal(src, tag)
        for dst in range(1, size):
            yield from comm._send_internal(None, dst, tag, nbytes=0)
    else:
        yield from comm._send_internal(None, 0, tag, nbytes=0)
        yield from comm._recv_internal(0, tag)


def _tree_barrier(comm, tag: int):
    """Binomial fan-in to rank 0, binomial fan-out back (root = 0)."""
    rank, size = comm.rank, comm.size
    children = children_vranks(rank, size)
    parent = parent_vrank(rank)
    # Fan-in: collect children, then report to parent.
    for child in children:
        yield from comm._recv_internal(child, tag)
    if parent is not None:
        yield from comm._send_internal(None, parent, tag, nbytes=0)
        yield from comm._recv_internal(parent, tag)
    # Fan-out: release children.
    for child in children:
        yield from comm._send_internal(None, child, tag, nbytes=0)


def ibarrier_runner(comm, request):
    """Generator run in a helper process to back MPI_Ibarrier."""
    from repro.ompi.coll.nonblocking import runner
    from repro.ompi.constants import _TAG_IBARRIER

    return runner(barrier(comm, tag=_TAG_IBARRIER), request)
