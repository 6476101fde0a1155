"""ob1 wire headers.

The classic ob1 match header is 14 bytes (paper §III-B2): context id
(the communicator's CID), source rank, tag, and a per-peer sequence
number, packed tight to keep short-message overhead low.  The sessions
prototype *prepends* an extended header on the first message(s) of a
communicator with an exCID: the full 128-bit exCID plus the sender's
local CID (§III-B4), ~20 bytes — both are modeled here as sized
dataclasses so the cost model charges exactly the extra bytes.

In memory the default engine carries the match header as the plain tuple
``(ctx, src, tag, seq)`` and the extension as ``(excid_key, sender_cid)``
(:class:`~repro.ompi.pml.ob1.Packet`); the dataclasses below are the
compat reference's form of the same fields."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

MATCH_HEADER_BYTES = 14
# 16 bytes of exCID + 2 bytes sender CID + 2 bytes flags/padding.
EXTENDED_HEADER_BYTES = 20


@dataclass(frozen=True)
class MatchHeader:
    """The compact matching header on every user message."""

    ctx: int        # 16-bit communicator id (receiver-local in exCID mode)
    src: int        # sender's rank within the communicator
    tag: int
    seq: int        # per (sender, receiver) ordering sequence

    @property
    def nbytes(self) -> int:
        return MATCH_HEADER_BYTES


@dataclass(frozen=True)
class ExtendedHeader:
    """Prepended while the sender does not yet know the receiver's CID."""

    excid: Tuple[int, Tuple[int, ...]]   # (pgcid, 8 subfield bytes)
    sender_cid: int                      # sender's local CID for the comm

    @property
    def nbytes(self) -> int:
        return EXTENDED_HEADER_BYTES


def header_bytes(ext: Optional[ExtendedHeader]) -> int:
    """Total header bytes for a message with/without the extension."""
    return MATCH_HEADER_BYTES + (ext.nbytes if ext is not None else 0)
