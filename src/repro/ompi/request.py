"""Nonblocking-operation requests.

A :class:`Request` *is* its completion :class:`SimEvent` — a process
blocks on it with ``Wait(request)`` — and, for a receive, *is* the
posted receive the matching engine queues (``src``/``tag``).  ``wait``
is a sub-generator (it suspends the simulated process); ``test`` is an
instantaneous poll.  ``waitall`` mirrors MPI_Waitall over a list of
requests.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.ompi.constants import ANY_SOURCE, ANY_TAG
from repro.ompi.errors import MPIErrRequest
from repro.ompi.status import Status
from repro.simtime.primitives import SimEvent
from repro.simtime.process import Wait


class Request(SimEvent):
    """Handle for a pending nonblocking operation.

    The event's ``value`` is the :class:`Status` of the completed
    operation, its ``exception`` the error a failed one is re-raised
    with by ``wait`` and ``test``.
    """

    __slots__ = ("kind", "src", "tag", "payload")

    def __init__(self, kind: str = "generic", src: int = ANY_SOURCE,
                 tag: int = ANY_TAG) -> None:
        # SimEvent.__init__, inlined: one constructor frame per message.
        self._waiters = None
        self.triggered = False
        self.value = None
        self.exception = None
        self.kind = kind
        #: What a receive matches (the matching engine reads these).
        self.src = src
        self.tag = tag
        #: The received object (recv requests, after completion).
        self.payload = None

    # -- completion plumbing (called by the PML / collectives) -------------
    def complete(self, status: Optional[Status] = None, payload=None) -> None:
        """``SimEvent.succeed`` with the request's own bookkeeping."""
        if self.triggered:
            raise MPIErrRequest(f"{self.kind} request completed twice")
        if status is None:
            status = Status()
        self.triggered = True
        self.value = status
        self.payload = payload
        waiters, self._waiters = self._waiters, None
        if waiters.__class__ is list:
            for cb in waiters:
                cb(status, None)
        elif waiters is not None:
            waiters(status, None)

    # -- user API --------------------------------------------------------------
    @property
    def completed(self) -> bool:
        return self.triggered

    def wait(self):
        """Sub-generator: block until complete; returns the Status."""
        status = yield Wait(self)
        return status

    def test(self) -> Tuple[bool, Optional[Status]]:
        """Instantaneous poll: (flag, status-or-None).  Like ``wait``, it
        raises the error of a failed request (MPI-4.0 §3.7.3)."""
        if not self.triggered:
            return False, None
        if self.exception is not None:
            raise self.exception
        return True, self.value

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.triggered else "pending"
        return f"<Request {self.kind} {state}>"


def waitall(requests: Iterable[Request]):
    """Sub-generator: wait for every request; returns list of statuses."""
    statuses = []
    for req in requests:
        statuses.append((yield Wait(req)))
    return statuses

