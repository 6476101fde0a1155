"""MPI_Group: an ordered set of processes.

Members are :class:`~repro.pmix.types.PmixProc` identifiers held in one
:class:`~repro.pmix.types.ProcSet`.  A group made from a process set
(``mpi://world``, a runtime-defined pset) holds the very value the
runtime minted for that set — one membership per world, shared by every
rank's group, communicator and PMIx collective, so a group costs its
rank O(1) space whatever its size.  Mirroring Open MPI's sparse-group
support the paper notes its prototype can reuse, a regular membership
(``(nspace, start, count, stride)``: ``mpi://world``, every-other-rank
subgroups) answers rank lookups arithmetically; an irregular one builds
a position index on first lookup.  Set operations and subsetting wrap
their result list in a fresh ``ProcSet``: nothing derived from the
parent's membership carries over.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.ompi.constants import UNDEFINED
from repro.ompi.errors import MPIErrArg, MPIErrGroup, MPIErrRank
from repro.pmix.types import PmixProc, ProcSet

# Comparison results (MPI_Group_compare)
IDENT = 0
SIMILAR = 1
UNEQUAL = 2


class Group:
    """An immutable, ordered collection of distinct processes."""

    __slots__ = ("_members", "freed", "session")

    def __init__(self, members: Iterable[PmixProc]) -> None:
        members = ProcSet(members)
        if not members.distinct:
            raise MPIErrGroup("group members must be distinct")
        self._members = members
        self.freed = False
        # Session affiliation (set by MPI_Group_from_session_pset).
        self.session = None

    # -- introspection ------------------------------------------------------
    @property
    def is_strided(self) -> bool:
        """True when this group's membership is a regular rank pattern."""
        return self._members.stride is not None

    def _check(self) -> None:
        if self.freed:
            raise MPIErrGroup("group used after free")

    @property
    def size(self) -> int:
        self._check()
        return len(self._members)

    def members(self) -> ProcSet:
        """The membership itself (a tuple of procs) — shared, not a copy."""
        self._check()
        return self._members

    def proc(self, rank: int) -> PmixProc:
        self._check()
        if not 0 <= rank < len(self._members):
            raise MPIErrRank(f"rank {rank} out of range for group of size {self.size}")
        return self._members[rank]

    def rank_of(self, proc: PmixProc) -> int:
        """Rank of ``proc`` in this group, or UNDEFINED if absent."""
        self._check()
        rank = self._members.find(proc)
        return rank if rank >= 0 else UNDEFINED

    def __contains__(self, proc: PmixProc) -> bool:
        return self.rank_of(proc) != UNDEFINED

    def __len__(self) -> int:
        return self.size

    def free(self) -> None:
        self._check()
        self.freed = True

    # -- comparison ------------------------------------------------------------
    def compare(self, other: "Group") -> int:
        self._check()
        other._check()
        mine, theirs = self.members(), other.members()
        if mine == theirs:
            return IDENT
        if set(mine) == set(theirs):
            return SIMILAR
        return UNEQUAL

    # -- set operations (MPI ordering rules) --------------------------------------
    def union(self, other: "Group") -> "Group":
        """Members of self, then members of other not in self (MPI order)."""
        self._check()
        other._check()
        seen = set(self.members())
        out = list(self.members())
        for proc in other.members():
            if proc not in seen:
                out.append(proc)
        return Group(out)

    def intersection(self, other: "Group") -> "Group":
        """Members of self that are also in other, in self's order."""
        self._check()
        other._check()
        theirs = set(other.members())
        return Group([p for p in self.members() if p in theirs])

    def difference(self, other: "Group") -> "Group":
        """Members of self not in other, in self's order."""
        self._check()
        other._check()
        theirs = set(other.members())
        return Group([p for p in self.members() if p not in theirs])

    # -- subsetting -------------------------------------------------------------------
    def incl(self, ranks: Sequence[int]) -> "Group":
        self._check()
        if len(set(ranks)) != len(ranks):
            raise MPIErrRank("MPI_Group_incl ranks must be distinct")
        return Group([self.proc(r) for r in ranks])

    def excl(self, ranks: Sequence[int]) -> "Group":
        self._check()
        if len(set(ranks)) != len(ranks):
            raise MPIErrRank("MPI_Group_excl ranks must be distinct")
        drop = set(ranks)
        for r in drop:
            if not 0 <= r < self.size:
                raise MPIErrRank(f"rank {r} out of range")
        return Group([p for i, p in enumerate(self.members()) if i not in drop])

    def range_incl(self, ranges: Sequence[Tuple[int, int, int]]) -> "Group":
        """Each range is (first, last, stride), inclusive, as in MPI."""
        self._check()
        ranks: List[int] = []
        for first, last, stride in ranges:
            if stride == 0:
                raise MPIErrArg("range stride must be nonzero")
            step = stride
            stop = last + (1 if step > 0 else -1)
            ranks.extend(range(first, stop, step))
        return self.incl(ranks)

    def range_excl(self, ranges: Sequence[Tuple[int, int, int]]) -> "Group":
        self._check()
        ranks: List[int] = []
        for first, last, stride in ranges:
            if stride == 0:
                raise MPIErrArg("range stride must be nonzero")
            step = stride
            stop = last + (1 if step > 0 else -1)
            ranks.extend(range(first, stop, step))
        return self.excl(ranks)

    # -- rank translation -----------------------------------------------------------------
    def translate_ranks(self, ranks: Sequence[int], other: "Group") -> List[int]:
        """Map ranks in self to the corresponding ranks in other."""
        self._check()
        other._check()
        out = []
        for r in ranks:
            out.append(other.rank_of(self.proc(r)))
        return out

    def __repr__(self) -> str:  # pragma: no cover
        kind = "strided" if self.is_strided else "dense"
        return f"<Group size={len(self._members)} {kind}>"


GROUP_EMPTY = Group(())
