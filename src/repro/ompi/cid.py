"""The legacy consensus CID allocator (paper §III-B2).

Open MPI's classic algorithm: the CID is a 16-bit index into each
process's local communicator array, and all members of a communicator
must agree on the index.  Agreement runs rounds of reductions on the
parent's point-to-point, among the ranks that will belong to the new
communicator (all of the parent's for ``dup``/``create``, the subgroup
for ``split``/``create_group``/``shrink``):

1. each process proposes its lowest free index at or above the current
   floor;
2. an allreduce(MAX) finds the largest proposal;
3. a second allreduce(MIN over "my proposal == max and it is free
   here") confirms unanimity; if anyone disagrees the floor moves to
   the max and the loop repeats.

With a fragmented CID space (holes at different indices on different
processes) the algorithm can take many rounds — the weakness the exCID
generator eliminates, exercised by the fragmentation ablation bench.

This module also owns the per-process communicator table.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ompi import constants
from repro.ompi.coll.reduce import allreduce_indexed
from repro.ompi.errors import MPIErrIntern

MAX_CID = 2**16


class CidTable:
    """Per-process array of communicators indexed by local CID.

    ``comms[cid]`` is the communicator or ``None`` for a free index; ob1
    indexes the list itself once per arriving message."""

    __slots__ = ("comms",)

    def __init__(self) -> None:
        self.comms: List[Optional[object]] = []

    def lowest_free(self, at_least: int = 0) -> int:
        for idx in range(at_least, len(self.comms)):
            if self.comms[idx] is None:
                return idx
        idx = max(at_least, len(self.comms))
        if idx >= MAX_CID:
            raise MPIErrIntern("communicator id space exhausted")
        return idx

    def is_free(self, cid: int) -> bool:
        return cid >= len(self.comms) or self.comms[cid] is None

    def reserve(self, cid: int, comm: object) -> None:
        if not self.is_free(cid):
            raise MPIErrIntern(f"CID {cid} already in use")
        while len(self.comms) <= cid:
            self.comms.append(None)
        self.comms[cid] = comm

    def release(self, cid: int) -> None:
        if cid >= len(self.comms) or self.comms[cid] is None:
            raise MPIErrIntern(f"release of free CID {cid}")
        self.comms[cid] = None

    def get(self, cid: int) -> Optional[object]:
        if 0 <= cid < len(self.comms):
            return self.comms[cid]
        return None

    @property
    def live_count(self) -> int:
        return sum(1 for c in self.comms if c is not None)

    def __len__(self) -> int:
        return len(self.comms)


def allocate_consensus_cid(comm, members=None):
    """Sub-generator: agree on a free CID over ``comm``'s point-to-point.

    The one §III-B2 loop.  ``members`` (comm ranks, in the new group's
    order) restricts the agreement to a subgroup — Open MPI's subgroup
    nextcid for ``split``/``create_group``/``shrink``; ``None`` agrees
    over every rank of ``comm``.  Returns the agreed CID (not yet
    reserved — the caller reserves it for the new communicator).
    """
    table: CidTable = comm.runtime.cid_table
    if members is None:
        members, my_idx = range(comm.size), comm.rank
    else:
        my_idx = members.index(comm.rank)
    floor = 0
    for _round in range(MAX_CID):
        proposed = table.lowest_free(at_least=floor)
        agreed = yield from allreduce_indexed(
            comm, members, my_idx, proposed, constants.MAX, nbytes=8,
            tag=constants._TAG_CID,
        )
        unanimous = proposed == agreed and table.is_free(agreed)
        all_ok = yield from allreduce_indexed(
            comm, members, my_idx, 1 if unanimous else 0, constants.MIN,
            nbytes=8, tag=constants._TAG_CID,
        )
        if all_ok:
            return agreed
        floor = agreed
    raise MPIErrIntern("CID consensus failed to converge")  # pragma: no cover
