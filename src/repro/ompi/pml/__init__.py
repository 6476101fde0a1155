"""Point-to-point Messaging Layer.

``ob1`` is the PML the paper modified: it performs matching inside Open
MPI using a 14-byte match header, which is why it was the component
chosen to host the exCID extension (§III-B4).  This package implements
the header formats, the matching engine (posted-receive + unexpected
queues), and the ob1 protocol including the first-message exCID
handshake and the eager/rendezvous split.
"""

from repro.ompi.pml.headers import MATCH_HEADER_BYTES
from repro.ompi.pml.matching import MatchingEngine
from repro.ompi.pml.ob1 import Ob1Endpoint, Fabric

__all__ = [
    "MATCH_HEADER_BYTES",
    "MatchingEngine",
    "Ob1Endpoint",
    "Fabric",
]
