"""MPI-level constants: wildcards, thread levels, reduction ops.

Reduction operations are small callable singletons so user code can say
``comm.allreduce(x, op=SUM)`` and tests can verify results against
numpy references.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

# -- wildcards / sentinels ----------------------------------------------------
ANY_SOURCE = -1
ANY_TAG = -1
PROC_NULL = -2
ROOT = -3
UNDEFINED = -32766

# -- thread support levels (MPI-2) ---------------------------------------------
THREAD_SINGLE = 0
THREAD_FUNNELED = 1
THREAD_SERIALIZED = 2
THREAD_MULTIPLE = 3

THREAD_LEVEL_NAMES = {
    THREAD_SINGLE: "MPI_THREAD_SINGLE",
    THREAD_FUNNELED: "MPI_THREAD_FUNNELED",
    THREAD_SERIALIZED: "MPI_THREAD_SERIALIZED",
    THREAD_MULTIPLE: "MPI_THREAD_MULTIPLE",
}

# -- reserved tags (internal; user tags must be >= 0) ----------------------------
TAG_UB = 2**22 - 1
_TAG_BARRIER = -10
_TAG_BCAST = -11
_TAG_REDUCE = -12
_TAG_ALLREDUCE = -13
_TAG_GATHER = -14
_TAG_SCATTER = -15
_TAG_ALLGATHER = -16
_TAG_ALLTOALL = -17
_TAG_IBARRIER = -18
_TAG_CID = -19
_TAG_SENDRECV = -20
_TAG_SCAN = -21


class Op:
    """A reduction operation.

    ``fn`` combines two contributions; ``commutative`` is advisory (all
    built-ins are commutative except user ops that declare otherwise).
    """

    __slots__ = ("name", "fn", "commutative")

    def __init__(self, name: str, fn: Callable[[Any, Any], Any], commutative: bool = True) -> None:
        self.name = name
        self.fn = fn
        self.commutative = commutative

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Op {self.name}>"


def _sum(a, b):
    return a + b


def _prod(a, b):
    return a * b


def _max(a, b):
    # Elementwise for arrays; an ndarray operand implies numpy is loaded.
    np = sys.modules.get("numpy")
    if np is not None and (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return np.maximum(a, b)
    return max(a, b)


def _min(a, b):
    np = sys.modules.get("numpy")
    if np is not None and (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return np.minimum(a, b)
    return min(a, b)


def _land(a, b):
    return bool(a) and bool(b)


def _lor(a, b):
    return bool(a) or bool(b)


def _band(a, b):
    return a & b


def _bor(a, b):
    return a | b


def _maxloc(a, b):
    """Operands are (value, index) pairs; ties resolve to the lower index."""
    (av, ai), (bv, bi) = a, b
    if av > bv or (av == bv and ai < bi):
        return (av, ai)
    return (bv, bi)


def _minloc(a, b):
    (av, ai), (bv, bi) = a, b
    if av < bv or (av == bv and ai < bi):
        return (av, ai)
    return (bv, bi)


SUM = Op("MPI_SUM", _sum)
PROD = Op("MPI_PROD", _prod)
MAX = Op("MPI_MAX", _max)
MIN = Op("MPI_MIN", _min)
LAND = Op("MPI_LAND", _land)
LOR = Op("MPI_LOR", _lor)
BAND = Op("MPI_BAND", _band)
BOR = Op("MPI_BOR", _bor)
MAXLOC = Op("MPI_MAXLOC", _maxloc)
MINLOC = Op("MPI_MINLOC", _minloc)
