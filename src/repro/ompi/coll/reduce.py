"""Reduce and allreduce.

``reduce``: binomial fan-in combining contributions toward the root.
``allreduce``: recursive doubling when the size is a power of two;
otherwise the standard pre-fold — extra ranks fold into a power-of-two
core, which runs recursive doubling, then results fan back out.
"""

from __future__ import annotations

from repro.ompi.coll._tree import children_vranks, parent_vrank, rank_of, vrank_of
from repro.ompi.constants import _TAG_ALLREDUCE, _TAG_REDUCE, Op
from repro.ompi.datatype import sizeof_payload
from repro.ompi.errors import MPIErrRank
from repro.ompi.request import Request
from repro.simtime.process import SLEEP0, Sleep, Wait


def reduce(comm, value, op: Op, root: int = 0, nbytes=None, tag: int = _TAG_REDUCE):
    """Sub-generator: combine everyone's ``value`` with ``op`` at ``root``.

    Returns the reduced value at the root, None elsewhere.  Combination
    order follows the tree; all built-in ops are commutative+associative
    so the result is deterministic for exact types.
    """
    size = comm.size
    if not 0 <= root < size:
        raise MPIErrRank(f"reduce root {root} out of range")
    if size == 1:
        return value
    payload_bytes = nbytes if nbytes is not None else sizeof_payload(value)
    vrank = vrank_of(comm.rank, root, size)
    acc = value
    # Children are combined in *descending* child order so that the
    # combination parenthesization is rank-order independent of timing.
    for child in sorted(children_vranks(vrank, size)):
        contrib = yield from comm._recv_internal(rank_of(child, root, size), tag)
        acc = op(acc, contrib)
    parent = parent_vrank(vrank)
    if parent is not None:
        yield from comm._send_internal(
            acc, rank_of(parent, root, size), tag, nbytes=payload_bytes
        )
        return None
    return acc


def allreduce(comm, value, op: Op, nbytes=None, tag: int = _TAG_ALLREDUCE):
    """Reduce + make the result available on every rank (returns the
    :func:`allreduce_indexed` sub-generator over the whole communicator)."""
    return allreduce_indexed(
        comm, list(range(comm.size)), comm.rank, value, op, nbytes, tag
    )


def allreduce_indexed(comm, members, my_idx: int, value, op: Op, nbytes=None,
                      tag: int = _TAG_ALLREDUCE):
    """Recursive-doubling allreduce among ``members`` (comm ranks).

    The general form: the participants are ``members[i]`` and this
    process is ``members[my_idx]``.  With ``members == range(size)``
    this is plain MPI_Allreduce; with a subset it is the agreement
    pattern the consensus-CID allocator runs for ``create_group``
    (Open MPI's subgroup nextcid).
    """
    n = len(members)
    if n == 1:
        return value
    payload_bytes = nbytes if nbytes is not None else sizeof_payload(value)

    # Largest power of two <= n.
    pof2 = 1
    while pof2 * 2 <= n:
        pof2 *= 2
    rem = n - pof2

    acc = value
    # Pre-fold: the top `rem` participants send into the low core.
    if my_idx >= pof2:
        yield from comm._send_internal(acc, members[my_idx - pof2], tag, nbytes=payload_bytes)
        acc = yield from comm._recv_internal(members[my_idx - pof2], tag)
        return acc
    if my_idx < rem:
        contrib = yield from comm._recv_internal(members[my_idx + pof2], tag)
        acc = op(acc, contrib)

    # Recursive doubling among the pof2 core.  The exchange is inlined
    # (docs/performance.md): same suspension points as _isend_internal +
    # _recv_internal + wait, without their generator frames — and, for an
    # eager payload, without a send Request: a zero-sleep stands in for
    # the wait on the already-complete send.
    ep = comm.runtime.endpoint
    eager = payload_bytes <= ep.machine.eager_limit
    mask = 1
    while mask < pof2:
        partner_idx = my_idx ^ mask
        partner = members[partner_idx]
        # Exchange: send then receive (packets don't deadlock in the sim
        # since isend is buffered/eager for these sizes, and rendezvous
        # RTS/CTS also cannot deadlock — both posts happen eventually).
        if comm.revoked or comm.failed_peers:
            comm._check_damage()
        peer = ep.send_peer(comm, partner)
        if not peer.known:
            yield from ep.discover(peer)
        sreq = None if eager else Request("send")
        busy = ep.start_send(comm, acc, partner, tag, payload_bytes, sreq, peer)
        if busy > 0:
            yield Sleep(busy)
        rreq = comm._irecv_internal(partner, tag)
        yield Wait(rreq)
        contrib = rreq.payload
        yield SLEEP0 if eager else Wait(sreq)
        # Order the combination by index so the parenthesization is
        # identical on both partners (deterministic for exact types).
        acc = op(acc, contrib) if my_idx < partner_idx else op(contrib, acc)
        mask <<= 1

    # Post-fold: return results to the folded-in participants.
    if my_idx < rem:
        yield from comm._send_internal(acc, members[my_idx + pof2], tag, nbytes=payload_bytes)
    return acc
