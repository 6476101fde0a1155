"""The 128-bit extended communicator identifier (exCID) generator.

Paper §III-B3: the exCID has two 64-bit halves.  The first carries the
PGCID obtained from PMIx group construction (0 is reserved for the
built-in World Process Model communicators, since PMIx guarantees
PGCIDs are non-zero).  The second is divided into eight 8-bit
subfields used to derive identifiers for child communicators without
talking to the runtime:

* a communicator fresh from a PGCID has ``active = 7`` and all
  subfields zero;
* deriving (e.g. ``MPI_Comm_dup``) stamps the parent's next counter
  value into the child's subfield at the parent's active position and
  gives the child ``active = parent.active - 1``;
* derivation requires a *new* PGCID when the parent's active subfield
  index is 0, when its counter passes 255, or when not all processes
  of the parent participate (``MPI_Comm_create_group``).

Because every rank executes the same deterministic derivation sequence
on the same parent, the derived exCIDs agree globally with **zero
communication** — that is the optimization the consensus algorithm
cannot match.  Collision-freedom over arbitrary derivation trees is
checked by a hypothesis property test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.ompi.errors import MPIErrIntern

SUBFIELDS = 8
SUBFIELD_MAX = 255
_ZERO_SUB = (0,) * SUBFIELDS     # shared by every fresh exCID: known valid


@dataclass(frozen=True)
class ExCid:
    """Immutable 128-bit identifier: (pgcid, 8 subfield bytes)."""

    pgcid: int
    sub: Tuple[int, ...] = _ZERO_SUB

    def __post_init__(self) -> None:
        if not 0 <= self.pgcid < 2**64:
            raise MPIErrIntern(f"PGCID {self.pgcid} out of 64-bit range")
        if self.sub is not _ZERO_SUB and (len(self.sub) != SUBFIELDS or any(
                not 0 <= s <= SUBFIELD_MAX for s in self.sub)):
            raise MPIErrIntern(f"bad subfields {self.sub}")

    def key(self) -> Tuple[int, Tuple[int, ...]]:
        """Hashable form used in wire headers and lookup tables."""
        return (self.pgcid, self.sub)

    def __str__(self) -> str:
        subs = ".".join(map(str, self.sub))
        return f"excid({self.pgcid}:{subs})"


class ExcidState:
    """Mutable per-communicator derivation state.

    ``active`` is the index of this communicator's active subfield;
    ``counter`` is the next value it will stamp there for a child.
    """

    __slots__ = ("excid", "active", "counter")

    def __init__(self, excid: ExCid, active: int) -> None:
        self.excid = excid
        self.active = active
        self.counter = excid.sub[active] + 1 if active >= 0 else SUBFIELD_MAX + 1

    @classmethod
    def from_pgcid(cls, pgcid: int) -> "ExcidState":
        """State for a communicator freshly created from a PMIx group."""
        if pgcid == 0:
            raise MPIErrIntern("PGCID 0 is reserved for built-in communicators")
        return cls(ExCid(pgcid=pgcid), active=SUBFIELDS - 1)

    def can_derive(self) -> bool:
        """True if a child id can be generated without a new PGCID."""
        return self.active > 0 and self.counter <= SUBFIELD_MAX

    def derive(self) -> "ExcidState":
        """Generate the next child's state (collective-deterministic)."""
        if not self.can_derive():
            raise MPIErrIntern(
                f"exCID space exhausted at {self.excid} "
                f"(active={self.active}, counter={self.counter}); "
                "a new PGCID is required"
            )
        sub = list(self.excid.sub)
        sub[self.active] = self.counter
        self.counter += 1
        child = ExCid(pgcid=self.excid.pgcid, sub=tuple(sub))
        return ExcidState(child, active=self.active - 1)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ExcidState {self.excid} active={self.active} next={self.counter}>"
