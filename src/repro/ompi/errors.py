"""MPI error classes and error handlers.

Error handlers can be created *before* any initialization call (one of
the paper's §III-B5 requirements); they are plain objects with no
dependency on library state.  ``ERRORS_ARE_FATAL`` aborts the simulated
job (raises through the process); ``ERRORS_RETURN`` converts errors to
raised :class:`MPIError` that user code may catch; custom handlers run a
callback first.
"""

from __future__ import annotations

from typing import Callable, Optional

# MPI error classes (subset)
ERR_ARG = 12
ERR_COMM = 5
ERR_COUNT = 2
ERR_GROUP = 8
ERR_INTERN = 16
ERR_OTHER = 15
ERR_PENDING = 18
ERR_RANK = 6
ERR_REQUEST = 19
ERR_SESSION = 62
ERR_TAG = 4
ERR_TRUNCATE = 14
ERR_UNSUPPORTED_OPERATION = 52
ERR_PROC_FAILED = 75              # MPI_ERR_PROC_FAILED (ULFM / MPI-4 FT)
ERR_REVOKED = 76                  # MPI_ERR_REVOKED (ULFM)

_ERRCLASS_NAMES = {
    ERR_ARG: "MPI_ERR_ARG",
    ERR_COMM: "MPI_ERR_COMM",
    ERR_COUNT: "MPI_ERR_COUNT",
    ERR_GROUP: "MPI_ERR_GROUP",
    ERR_INTERN: "MPI_ERR_INTERN",
    ERR_OTHER: "MPI_ERR_OTHER",
    ERR_PENDING: "MPI_ERR_PENDING",
    ERR_RANK: "MPI_ERR_RANK",
    ERR_REQUEST: "MPI_ERR_REQUEST",
    ERR_SESSION: "MPI_ERR_SESSION",
    ERR_TAG: "MPI_ERR_TAG",
    ERR_TRUNCATE: "MPI_ERR_TRUNCATE",
    ERR_UNSUPPORTED_OPERATION: "MPI_ERR_UNSUPPORTED_OPERATION",
    ERR_PROC_FAILED: "MPI_ERR_PROC_FAILED",
    ERR_REVOKED: "MPI_ERR_REVOKED",
}


class MPIError(Exception):
    """Base MPI error; carries the MPI error class."""

    errclass = ERR_OTHER

    def __init__(self, message: str = "") -> None:
        name = _ERRCLASS_NAMES.get(self.errclass, f"MPI_ERR({self.errclass})")
        super().__init__(f"{name}: {message}" if message else name)
        self.message = message


class MPIErrArg(MPIError):
    errclass = ERR_ARG


class MPIErrComm(MPIError):
    errclass = ERR_COMM


class MPIErrRank(MPIError):
    errclass = ERR_RANK


class MPIErrTag(MPIError):
    errclass = ERR_TAG


class MPIErrGroup(MPIError):
    errclass = ERR_GROUP


class MPIErrTruncate(MPIError):
    errclass = ERR_TRUNCATE


class MPIErrRequest(MPIError):
    errclass = ERR_REQUEST


class MPIErrSession(MPIError):
    errclass = ERR_SESSION


class MPIErrPending(MPIError):
    errclass = ERR_PENDING


class MPIErrIntern(MPIError):
    errclass = ERR_INTERN


class MPIErrProcFailed(MPIError):
    """A peer process (or its node) died — operations touching it fail
    with this class instead of deadlocking (fault injection, see
    docs/faults.md)."""

    errclass = ERR_PROC_FAILED


# The name the fault-injection docs/tests use.
ProcFailed = MPIErrProcFailed


class MPIErrRevoked(MPIError):
    """The communicator was revoked (``Communicator.revoke``): every
    pending and future operation on it fails with this class so all
    members reach the recovery path together (docs/recovery.md)."""

    errclass = ERR_REVOKED


class MPIAbort(Exception):
    """Raised by ERRORS_ARE_FATAL (and MPI_Abort): terminates the rank."""

    def __init__(self, errclass: int, message: str) -> None:
        super().__init__(f"MPI job aborted ({_ERRCLASS_NAMES.get(errclass, errclass)}): {message}")
        self.errclass = errclass


class Errhandler:
    """An MPI error handler, constructible before initialization."""

    _counter = 0

    def __init__(self, fn: Optional[Callable[[object, MPIError], None]] = None, name: str = "") -> None:
        Errhandler._counter += 1
        self.fn = fn
        self.name = name or f"errhandler-{Errhandler._counter}"

    def invoke(self, origin: object, error: MPIError) -> None:
        """Dispatch ``error`` raised on ``origin`` (a comm/session/...)."""
        if self is ERRORS_ARE_FATAL:
            raise MPIAbort(error.errclass, str(error))
        if self.fn is not None:
            self.fn(origin, error)
        raise error

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Errhandler {self.name}>"


ERRORS_ARE_FATAL = Errhandler(name="MPI_ERRORS_ARE_FATAL")
ERRORS_RETURN = Errhandler(name="MPI_ERRORS_RETURN")
