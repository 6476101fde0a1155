"""The legacy consensus CID allocator (paper §III-B2).

Open MPI's classic algorithm: the CID is a 16-bit index into each
process's local communicator array, and all members of a communicator
must agree on the index.  Agreement runs rounds of reductions over the
*parent* communicator:

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


def allocate_consensus_cid(parent_comm):
    """Sub-generator: agree on a free CID using the parent communicator.

    Returns the agreed CID (not yet reserved — the caller reserves it
    for the new communicator).  Runs entirely on MPI point-to-point
    traffic via the parent's allreduce, exactly like Open MPI.
    """
    table: CidTable = parent_comm.runtime.cid_table
    floor = 0
    rounds = 0
    while True:
        rounds += 1
        if rounds > MAX_CID:  # pragma: no cover - defensive
            raise MPIErrIntern("CID consensus failed to converge")
        proposed = table.lowest_free(at_least=floor)
        agreed = yield from parent_comm._internal_allreduce(
            proposed, constants.MAX, constants._TAG_CID
        )
        unanimous = proposed == agreed and table.is_free(agreed)
        all_ok = yield from parent_comm._internal_allreduce(
            1 if unanimous else 0, constants.MIN, constants._TAG_CID
        )
        if all_ok:
            return agreed
        floor = agreed
