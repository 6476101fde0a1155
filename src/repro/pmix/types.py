"""PMIx identifiers, status codes, and attribute keys.

Mirrors the names of the PMIx v4 specification for the slice this
prototype exercises.  Status codes are small ints; failures surface as
:class:`PmixError` carrying the status.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

# -- status codes ------------------------------------------------------------
PMIX_SUCCESS = 0
PMIX_ERR_TIMEOUT = -4
PMIX_ERR_NOT_FOUND = -5
PMIX_ERR_INVALID_OPERATION = -13
PMIX_ERR_PROC_TERMINATED = -22
PMIX_ERR_LOST_CONNECTION = -25
PMIX_ERR_PROC_ABORTED = -26

_STATUS_NAMES = {
    PMIX_SUCCESS: "PMIX_SUCCESS",
    PMIX_ERR_TIMEOUT: "PMIX_ERR_TIMEOUT",
    PMIX_ERR_NOT_FOUND: "PMIX_ERR_NOT_FOUND",
    PMIX_ERR_INVALID_OPERATION: "PMIX_ERR_INVALID_OPERATION",
    PMIX_ERR_PROC_TERMINATED: "PMIX_ERR_PROC_TERMINATED",
    PMIX_ERR_LOST_CONNECTION: "PMIX_ERR_LOST_CONNECTION",
    PMIX_ERR_PROC_ABORTED: "PMIX_ERR_PROC_ABORTED",
}


def status_name(code: int) -> str:
    return _STATUS_NAMES.get(code, f"PMIX_STATUS({code})")


# Sentinel blob standing in for a dead participant's contribution in a
# collective result (lives here so both the PMIx server and the PRRTE
# grpcomm restart path can use it without a circular import).
ABORTED_MARKER = "__pmix_proc_aborted__"


class PmixStatus(int):
    """An int subclass whose repr shows the symbolic status name."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return status_name(int(self))


class PmixError(Exception):
    """Raised by PMIx client operations that fail.

    ``failed_procs`` names the participants whose death caused the
    failure (when known) — survivors use it to re-issue the operation
    with an evicted membership (docs/recovery.md).
    """

    def __init__(self, status: int, message: str = "", failed_procs=()) -> None:
        self.status = status
        self.failed_procs = tuple(failed_procs)
        super().__init__(f"{status_name(status)}: {message}" if message else status_name(status))


# -- rank sentinel ------------------------------------------------------------
PMIX_RANK_WILDCARD = -1  # refers to job-level (not rank-level) data

# -- reserved keys -------------------------------------------------------------
PMIX_JOB_SIZE = "pmix.job.size"
PMIX_LOCAL_RANK = "pmix.lrank"
PMIX_NODE_ID = "pmix.nodeid"
PMIX_LOCAL_PEERS = "pmix.lpeers"
PMIX_UNIV_SIZE = "pmix.univ.size"

# -- query keys (paper §III-A) --------------------------------------------------
PMIX_QUERY_NUM_PSETS = "pmix.qry.psetnum"
PMIX_QUERY_PSET_NAMES = "pmix.qry.psets"
PMIX_QUERY_PSET_MEMBERSHIP = "pmix.qry.pmems"

# -- group directives (paper §III-A constructor options) -------------------------
PMIX_GROUP_CONTEXT_ID = "pmix.grp.ctxid"        # request a PGCID
PMIX_GROUP_LEADER = "pmix.grp.ldr"              # designate a leader process
PMIX_TIMEOUT = "pmix.timeout"                   # seconds before ERR_TIMEOUT
PMIX_GROUP_NOTIFY_TERMINATION = "pmix.grp.notifyterm"
PMIX_GROUP_FT_COLLECTIVE = "pmix.grp.ftcoll"    # treat early death as error


class PmixProc:
    """A process identifier: (namespace, rank).

    ``rank == PMIX_RANK_WILDCARD`` designates the whole namespace, as in
    the PMIx spec.  Implemented as a slotted value class with a
    precomputed hash — these ids are created and hashed millions of
    times per simulation (every message, every collective signature).
    """

    __slots__ = ("nspace", "rank", "_hash")

    def __init__(self, nspace: str, rank: int) -> None:
        self.nspace = nspace
        self.rank = rank
        self._hash = hash((nspace, rank))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is PmixProc:
            return self.rank == other.rank and self.nspace == other.nspace
        return NotImplemented

    def __lt__(self, other: "PmixProc") -> bool:
        return (self.nspace, self.rank) < (other.nspace, other.rank)

    def __le__(self, other: "PmixProc") -> bool:
        return (self.nspace, self.rank) <= (other.nspace, other.rank)

    def __gt__(self, other: "PmixProc") -> bool:
        return (self.nspace, self.rank) > (other.nspace, other.rank)

    def __ge__(self, other: "PmixProc") -> bool:
        return (self.nspace, self.rank) >= (other.nspace, other.rank)

    def __repr__(self) -> str:
        return f"PmixProc(nspace={self.nspace!r}, rank={self.rank})"

    def __str__(self) -> str:
        r = "*" if self.rank == PMIX_RANK_WILDCARD else str(self.rank)
        return f"{self.nspace}:{r}"


class ProcSet(tuple):
    """An immutable, ordered process membership that carries its own facts.

    A tuple of :class:`PmixProc` (it compares, indexes and iterates as
    one) plus the facts every layer used to re-derive from it per rank
    and per server: whether it is sorted and what its canonical order
    is, whether its members are distinct, its stride, its collective
    fingerprint, where each member sits, and which node hosts whom.
    Each fact is computed on first use and kept, so a membership minted
    once per world (``Job.all_procs``, a :class:`~repro.prrte.psets.
    PsetRegistry` entry) is *handed* from Session to Group to the PMIx
    client to every PMIx server rather than copied and re-checked.
    ``ProcSet(x)`` is ``x`` itself when ``x`` already is one; any other
    iterable (group set algebra, a shrink's survivor list, a test's
    ad-hoc list) gets a fresh value with nothing derived yet — facts are
    never inherited from the set the members were picked out of.
    """

    def __new__(cls, procs=()) -> "ProcSet":
        if procs.__class__ is cls:
            return procs
        return tuple.__new__(cls, procs)

    @cached_property
    def stride(self) -> Optional[Tuple[str, int, int, int]]:
        """``(nspace, start, count, stride)`` when the members are ranks
        start, start+stride, ... of one namespace — a regular pattern
        worth exploiting (>= 4 members, stride > 0) — else ``None``."""
        count = len(self)
        if count < 4:
            return None
        nspace, start = self[0].nspace, self[0].rank
        step = self[1].rank - start
        if step <= 0:
            return None
        expect = start
        for proc in self:
            if proc.rank != expect or proc.nspace != nspace:
                return None
            expect += step
        return (nspace, start, count, step)

    @cached_property
    def is_sorted(self) -> bool:
        if self.stride is not None:
            return True
        return all(not self[i + 1] < self[i] for i in range(len(self) - 1))

    @cached_property
    def _sorted(self) -> "ProcSet":
        out = ProcSet(sorted(self))
        out.is_sorted = True
        return out

    def canonical(self) -> "ProcSet":
        """The members in canonical (sorted) order: ``self`` if sorted."""
        return self if self.is_sorted else self._sorted

    @cached_property
    def member_key(self) -> Hashable:
        """Cheap membership fingerprint for collective signatures:
        ``(count, first, last, rank sum)`` of the canonical order.

        Avoids hashing the full (possibly huge) membership on every
        operation.  Two *concurrent* collectives collide only if they
        share kind, extra id, count, endpoints, and rank sum — and
        MPI/PMIx ordering rules already forbid the overlapping cases.
        """
        ordered = self.canonical()
        if self.stride is not None:
            _nspace, start, count, step = self.stride
            ranksum = count * start + step * (count * (count - 1) // 2)
        else:
            ranksum = sum(proc.rank for proc in self)
        return (len(self), ordered[0], ordered[-1], ranksum)

    @cached_property
    def _index(self) -> Dict[PmixProc, int]:
        # Reversed so the first of equal members wins, as tuple.index.
        return dict(zip(reversed(self), range(len(self) - 1, -1, -1)))

    @cached_property
    def distinct(self) -> bool:
        return self.stride is not None or len(self._index) == len(self)

    def find(self, proc: PmixProc) -> int:
        """Position of ``proc``, or -1: arithmetic on a strided set, one
        dict probe otherwise."""
        if proc.__class__ is not PmixProc:
            return -1
        if self.stride is None:
            return self._index.get(proc, -1)
        nspace, start, count, step = self.stride
        if proc.nspace != nspace:
            return -1
        i, rem = divmod(proc.rank - start, step)
        return i if rem == 0 and 0 <= i < count else -1

    def __contains__(self, proc) -> bool:
        return self.find(proc) >= 0

    def by_node(self, node_of: Callable[[PmixProc], int]) -> Dict[int, "ProcSet"]:
        """Members grouped by home node: nodes ascending, each group in
        member order.  Derived on the first call and kept — which node
        hosts a process is a fact of the world the set was minted in,
        so every server of that world asks the same question."""
        groups = self.__dict__.get("_by_node")
        if groups is None:
            found: Dict[int, list] = {}
            for proc in self:
                found.setdefault(node_of(proc), []).append(proc)
            groups = self._by_node = {n: ProcSet(found[n]) for n in sorted(found)}
        return groups


@dataclass
class PmixInfo:
    """A (key, value) directive, optionally flagged as required."""

    key: str
    value: Any
    required: bool = False


def info_dict(infos) -> Dict[str, Any]:
    """Normalize a list of PmixInfo / (key, value) pairs / dict to a dict."""
    if infos is None:
        return {}
    if isinstance(infos, dict):
        return dict(infos)
    out: Dict[str, Any] = {}
    for item in infos:
        if isinstance(item, PmixInfo):
            out[item.key] = item.value
        else:
            key, value = item
            out[key] = value
    return out


def lookup_info(infos, key: str, default: Optional[Any] = None) -> Any:
    """Fetch one directive from any accepted 'info' representation."""
    return info_dict(infos).get(key, default)
