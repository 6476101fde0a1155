"""Runtime-defined process sets.

A process set is *just a name for a list of processes* (paper §III-B6);
PRRTE owns the registry and PMIx queries read it.  The MPI layer adds
its reserved names (``mpi://world`` etc.) on top of whatever the user or
site configured at launch time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.pmix.types import PmixProc, ProcSet


class PsetRegistry:
    """Name -> ordered :class:`ProcSet` of members.

    One value per definition, handed to every process that resolves the
    name; an eviction mints a new one, so facts derived from the old
    membership (order, stride, size) are never carried over.
    """

    def __init__(self) -> None:
        self._sets: Dict[str, ProcSet] = {}

    def define(self, name: str, members: Iterable[PmixProc]) -> None:
        """Register a process set; redefining an existing name is an error."""
        if not name:
            raise ValueError("process set name must be non-empty")
        if name in self._sets:
            raise ValueError(f"process set {name!r} already defined")
        members = ProcSet(members)
        if not members.distinct:
            raise ValueError(f"process set {name!r} has duplicate members")
        self._sets[name] = members

    def undefine(self, name: str) -> None:
        self._sets.pop(name, None)

    def evict(self, proc: PmixProc) -> List[str]:
        """Remove a dead process from every set (idempotent).

        Returns the names of the sets that changed.  Sets may become
        empty but keep their names — queries stay answerable and all
        servers (which share this registry) see the same membership.
        """
        changed = []
        for name, members in self._sets.items():
            if proc in members:
                self._sets[name] = ProcSet(p for p in members if p != proc)
                changed.append(name)
        return changed

    def names(self) -> List[str]:
        return sorted(self._sets)

    def count(self) -> int:
        return len(self._sets)

    def members(self, name: str) -> Optional[ProcSet]:
        return self._sets.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._sets
