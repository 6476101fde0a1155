"""Cartesian process topologies (MPI_Cart_create and friends)."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.apps.twomesh.mesh import dims_create
from repro.ompi.constants import PROC_NULL
from repro.ompi.errors import MPIErrArg


class CartTopology:
    """Coordinate bookkeeping for an N-dimensional process grid."""

    def __init__(self, dims: Sequence[int], periods: Sequence[bool]) -> None:
        if not dims:
            raise MPIErrArg("cartesian topology needs at least one dimension")
        if len(periods) != len(dims):
            raise MPIErrArg("periods must match dims")
        if any(d < 1 for d in dims):
            raise MPIErrArg("dimensions must be >= 1")
        self.dims = tuple(dims)
        self.periods = tuple(bool(p) for p in periods)
        self.size = 1
        for d in dims:
            self.size *= d

    @property
    def ndims(self) -> int:
        return len(self.dims)

    def coords(self, rank: int) -> Tuple[int, ...]:
        """MPI_Cart_coords (row-major, like MPI)."""
        if not 0 <= rank < self.size:
            raise MPIErrArg(f"rank {rank} out of range")
        out: List[int] = []
        remaining = rank
        for d in reversed(self.dims):
            out.append(remaining % d)
            remaining //= d
        return tuple(reversed(out))

    def rank(self, coords: Sequence[int]) -> Optional[int]:
        """MPI_Cart_rank; None (MPI_PROC_NULL) if off a non-periodic edge."""
        if len(coords) != self.ndims:
            raise MPIErrArg("coords must match dims")
        normalized: List[int] = []
        for c, d, periodic in zip(coords, self.dims, self.periods):
            if periodic:
                c %= d
            elif not 0 <= c < d:
                return None
            normalized.append(c)
        rank = 0
        for c, d in zip(normalized, self.dims):
            rank = rank * d + c
        return rank

    def shift(self, rank: int, dimension: int, displacement: int) -> Tuple[int, int]:
        """MPI_Cart_shift: (source, dest) ranks (PROC_NULL at open edges)."""
        if not 0 <= dimension < self.ndims:
            raise MPIErrArg(f"dimension {dimension} out of range")
        coords = list(self.coords(rank))
        coords[dimension] += displacement
        dest = self.rank(coords)
        coords[dimension] -= 2 * displacement
        src = self.rank(coords)
        return (
            src if src is not None else PROC_NULL,
            dest if dest is not None else PROC_NULL,
        )


def cart_create(comm, dims: Optional[Sequence[int]] = None,
                periods=True, ndims: int = 2):
    """Sub-generator: MPI_Cart_create (collective).

    Returns a new communicator with a ``cart`` attribute carrying the
    topology.  ``dims=None`` balances the factors like MPI_Dims_create.
    """
    if dims is None:
        dims = dims_create(comm.size, ndims)
    total = 1
    for d in dims:
        total *= d
    if total != comm.size:
        raise MPIErrArg(f"grid {tuple(dims)} does not cover {comm.size} ranks")
    if isinstance(periods, bool):
        periods = [periods] * len(dims)
    new = yield from comm.dup()
    new.cart = CartTopology(dims, periods)
    new.name = f"{comm.name}.cart{tuple(dims)}"
    return new
