"""ob1 wire headers.

The classic ob1 match header is 14 bytes (paper §III-B2): context id
(the communicator's CID), source rank, tag, and a per-peer sequence
number, packed tight to keep short-message overhead low.  The sessions
prototype *prepends* an extended header on the first message(s) of a
communicator with an exCID: the full 128-bit exCID plus the sender's
local CID (§III-B4), ~20 bytes — the cost model charges exactly the
extra bytes.

In memory a :class:`~repro.ompi.pml.ob1.Packet` carries the match
header as the plain tuple ``(ctx, src, tag, seq)`` and the extension as
``(excid_key, sender_cid)``."""

MATCH_HEADER_BYTES = 14
# 16 bytes of exCID + 2 bytes sender CID + 2 bytes flags/padding.
EXTENDED_HEADER_BYTES = 20
