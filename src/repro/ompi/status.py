"""MPI_Status objects."""

from __future__ import annotations

from repro.ompi.constants import ANY_SOURCE, ANY_TAG


class Status:
    """Receive status: source, tag, and received byte count (the
    MPI_SOURCE and MPI_TAG fields, and what MPI_Get_count reads)."""

    __slots__ = ("source", "tag", "count")

    def __init__(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, count: int = 0) -> None:
        self.source = source
        self.tag = tag
        self.count = count

    def __repr__(self) -> str:  # pragma: no cover
        return f"Status(source={self.source}, tag={self.tag}, count={self.count})"
