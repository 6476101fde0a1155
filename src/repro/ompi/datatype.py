"""MPI datatypes.

Basic numeric types map to numpy dtypes; derived types (contiguous and
vector) carry the layout needed to compute wire sizes.  The simulator
moves Python objects, so datatypes exist to (a) size messages for the
cost model and (b) mirror the API shape of an MPI library.

numpy is imported by the first thing that needs it — reading
:attr:`Datatype.np_dtype`, allocating a window — and never at import:
most simulated programs move Python ints.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.ompi.errors import MPIErrArg


class Datatype:
    """An MPI datatype: a name, an extent in bytes, and (for derived
    types) a block layout."""

    def __init__(
        self,
        name: str,
        size: int,
        np_dtype: Optional[str] = None,
        committed: bool = True,
    ) -> None:
        if size < 0:
            raise MPIErrArg("datatype size must be >= 0")
        self.name = name
        self.size = size            # true data bytes per element
        self.extent = size          # span including gaps (derived types differ)
        self._np_name = np_dtype    # numpy dtype name; None for derived types
        self.committed = committed
        self.predefined = False     # True for the module-level constants
        self.freed = False

    @property
    def np_dtype(self):
        """The matching ``numpy.dtype`` (``None`` for derived types)."""
        if self._np_name is None:
            return None
        import numpy as np

        return np.dtype(self._np_name)

    # -- derived constructors ----------------------------------------------
    def create_contiguous(self, count: int) -> "Datatype":
        if count < 0:
            raise MPIErrArg("count must be >= 0")
        dt = Datatype(f"contig({count})x{self.name}", self.size * count, committed=False)
        dt.extent = self.extent * count
        return dt

    def create_vector(self, count: int, blocklength: int, stride: int) -> "Datatype":
        if count < 0 or blocklength < 0:
            raise MPIErrArg("count and blocklength must be >= 0")
        dt = Datatype(
            f"vector({count},{blocklength},{stride})x{self.name}",
            self.size * count * blocklength,
            committed=False,
        )
        if count > 0:
            dt.extent = self.extent * (stride * (count - 1) + blocklength)
        else:
            dt.extent = 0
        return dt

    def commit(self) -> "Datatype":
        self._check()
        self.committed = True
        return self

    def free(self) -> None:
        self._check()
        if self.predefined:
            # The constants below are shared by every world of the process.
            raise MPIErrArg(f"predefined datatype {self.name} cannot be freed")
        self.freed = True

    def _check(self) -> None:
        if self.freed:
            raise MPIErrArg(f"datatype {self.name} used after free")

    def wire_size(self, count: int) -> int:
        """Bytes on the wire for ``count`` elements of this type."""
        self._check()
        if not self.committed:
            raise MPIErrArg(f"datatype {self.name} used before commit")
        return self.size * count

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Datatype {self.name} size={self.size}>"


def _predefined(name: str, size: int, np_dtype: str) -> Datatype:
    dt = Datatype(name, size, np_dtype)
    dt.predefined = True
    return dt


BYTE = _predefined("MPI_BYTE", 1, "uint8")
CHAR = _predefined("MPI_CHAR", 1, "S1")
SHORT = _predefined("MPI_SHORT", 2, "int16")
INT = _predefined("MPI_INT", 4, "int32")
LONG = _predefined("MPI_LONG", 8, "int64")
UNSIGNED = _predefined("MPI_UNSIGNED", 4, "uint32")
UNSIGNED_LONG = _predefined("MPI_UNSIGNED_LONG", 8, "uint64")
FLOAT = _predefined("MPI_FLOAT", 4, "float32")
DOUBLE = _predefined("MPI_DOUBLE", 8, "float64")
COMPLEX = _predefined("MPI_COMPLEX", 8, "complex64")
DOUBLE_COMPLEX = _predefined("MPI_DOUBLE_COMPLEX", 16, "complex128")
BOOL = _predefined("MPI_C_BOOL", 1, "bool")


def sizeof_payload(payload, datatype: Optional[Datatype] = None, count: Optional[int] = None) -> int:
    """Best-effort wire size of a python payload.

    Priority: explicit (datatype, count) > numpy nbytes > bytes len >
    rough pickle-free structural estimate.
    """
    if datatype is not None and count is not None:
        return datatype.wire_size(count)
    # An ndarray cannot exist in a process that never imported numpy.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if payload is None:
        return 0
    if isinstance(payload, (int, float, complex, bool)):
        return 8
    if isinstance(payload, str):
        return len(payload)
    if isinstance(payload, (list, tuple, set)):
        return 8 + sum(sizeof_payload(v) for v in payload)
    if isinstance(payload, dict):
        return 8 + sum(sizeof_payload(k) + sizeof_payload(v) for k, v in payload.items())
    return 64
