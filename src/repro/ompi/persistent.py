"""Persistent communication requests (MPI_Send_init / MPI_Recv_init).

A persistent request freezes the argument list of a point-to-point
operation; ``start`` launches one instance, ``wait`` completes it, and
the request can be started again — the classic fixed-pattern
optimization (halo exchanges start the same requests every timestep).
"""

from __future__ import annotations

from typing import Optional

from repro.ompi.constants import ANY_SOURCE, ANY_TAG
from repro.ompi.errors import MPIErrRequest
from repro.ompi.request import Request
from repro.ompi.status import Status


class PersistentRequest:
    """Base: holds frozen arguments + the currently active Request;
    a subclass's ``_launch`` sub-generator starts one instance."""

    def __init__(self, comm) -> None:
        self.comm = comm
        self._active: Optional[Request] = None
        self.freed = False
        self.starts = 0

    def _check(self) -> None:
        if self.freed:
            raise MPIErrRequest("persistent request used after free")

    @property
    def active(self) -> bool:
        return self._active is not None and not self._active.completed

    def start(self):
        """Sub-generator: launch one instance of the operation."""
        self._check()
        if self.active:
            raise MPIErrRequest("persistent request started while active")
        self.starts += 1
        self._active = yield from self._launch()
        return self

    def wait(self):
        """Sub-generator: complete the active instance; returns Status."""
        self._check()
        if self._active is None:
            raise MPIErrRequest("wait on a never-started persistent request")
        status = yield from self._active.wait()
        return status

    @property
    def payload(self):
        return self._active.payload if self._active is not None else None

    def free(self) -> None:
        self._check()
        if self.active:
            raise MPIErrRequest("persistent request freed while active")
        self.freed = True


class PersistentSend(PersistentRequest):
    def __init__(self, comm, obj, dest: int, tag: int, nbytes: Optional[int]) -> None:
        super().__init__(comm)
        self.obj = obj
        self.dest = dest
        self.tag = tag
        self.nbytes = nbytes

    def _launch(self):
        return (yield from self.comm.isend(self.obj, self.dest, self.tag, self.nbytes))


class PersistentRecv(PersistentRequest):
    def __init__(self, comm, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> None:
        super().__init__(comm)
        self.source = source
        self.tag = tag

    def _launch(self):
        return self.comm.irecv(self.source, self.tag)
        yield  # pragma: no cover - irecv is instantaneous


def startall(prequests):
    """Sub-generator: MPI_Startall."""
    for pr in prequests:
        yield from pr.start()


def waitall(prequests):
    """Sub-generator: wait for every started persistent request."""
    statuses = []
    for pr in prequests:
        statuses.append((yield from pr.wait()))
    return statuses
