"""Simulated Open MPI.

The MPI library linked into every simulated process.  Mirrors the parts
of Open MPI the paper's prototype touched: the re-initialisable
instance lifecycle (``instance.py``), the ob1 point-to-point messaging
layer (PML) with its 14-byte match header and the new extended-CID
handshake, the legacy consensus CID allocator and the new exCID
generator, communicators/groups/collectives, and the two initialization models — the classic World
Process Model (``MPI_Init``/``MPI_COMM_WORLD``) and the Sessions
Process Model (``MPI_Session_init`` → pset → group → communicator).

``Info``, ``Window`` and ``File`` (the names in ``_LAZY``) resolve on
first use, so a job that never creates one never loads their modules.
"""

from repro._lazy import lazy_getattr
from repro.ompi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    THREAD_SINGLE,
    THREAD_FUNNELED,
    THREAD_SERIALIZED,
    THREAD_MULTIPLE,
    SUM,
    PROD,
    MAX,
    MIN,
    LAND,
    LOR,
    BAND,
    BOR,
    MAXLOC,
    MINLOC,
    UNDEFINED,
)
from repro.ompi.errors import (
    MPIError,
    MPIErrTruncate,
    MPIErrComm,
    MPIErrArg,
    MPIErrPending,
    Errhandler,
    ERRORS_ARE_FATAL,
    ERRORS_RETURN,
)
from repro.ompi.status import Status
from repro.ompi.request import Request
from repro.ompi.group import Group
from repro.ompi.config import MpiConfig
from repro.ompi.runtime import MpiRuntime
from repro.ompi.session import Session
from repro.ompi.comm import Communicator

#: Names whose modules a plain job never needs.
_LAZY = {"Info": "info", "Window": "win", "File": "io"}
__getattr__ = lazy_getattr(__name__, _LAZY)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "PROC_NULL",
    "THREAD_SINGLE",
    "THREAD_FUNNELED",
    "THREAD_SERIALIZED",
    "THREAD_MULTIPLE",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "LAND",
    "LOR",
    "BAND",
    "BOR",
    "MAXLOC",
    "MINLOC",
    "UNDEFINED",
    "MPIError",
    "MPIErrTruncate",
    "MPIErrComm",
    "MPIErrArg",
    "MPIErrPending",
    "Errhandler",
    "ERRORS_ARE_FATAL",
    "ERRORS_RETURN",
    "Info",
    "Status",
    "Request",
    "Group",
    "MpiConfig",
    "MpiRuntime",
    "Session",
    "Communicator",
    "Window",
    "File",
]
