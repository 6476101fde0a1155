"""Nonblocking-operation requests.

A :class:`Request` wraps a completion :class:`SimEvent`.  ``wait`` is a
sub-generator (it suspends the simulated process); ``test`` is an
instantaneous poll.  ``waitall``/``waitany``/``testall`` mirror the MPI
operations over collections of requests.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.ompi.errors import MPIErrRequest
from repro.ompi.status import Status
from repro.simtime.primitives import SimEvent
from repro.simtime.process import Wait, WaitAny


class Request:
    """Handle for a pending nonblocking operation."""

    __slots__ = ("event", "kind", "_status", "_freed", "payload")

    def __init__(self, kind: str = "generic") -> None:
        self.event = SimEvent()
        self.kind = kind
        self._status: Optional[Status] = None
        self._freed = False
        #: The received object (recv requests, after completion).
        self.payload = None

    # -- completion plumbing (called by the PML / collectives) -------------
    def complete(self, status: Optional[Status] = None, payload=None) -> None:
        if self.event.triggered:
            raise MPIErrRequest(f"{self.kind} request completed twice")
        self._status = status = status or Status()
        self.payload = payload
        self.event.succeed(status)

    def fail(self, exc: BaseException) -> None:
        self.event.fail(exc)

    # -- user API --------------------------------------------------------------
    @property
    def completed(self) -> bool:
        return self.event.triggered

    def get_status(self) -> Optional[Status]:
        return self._status

    def wait(self):
        """Sub-generator: block until complete; returns the Status."""
        self._check()
        status = yield Wait(self.event)
        return status

    def test(self) -> Tuple[bool, Optional[Status]]:
        """Instantaneous poll: (flag, status-or-None)."""
        self._check()
        if self.event.triggered:
            return True, self._status
        return False, None

    def free(self) -> None:
        self._freed = True

    def _check(self) -> None:
        if self._freed:
            raise MPIErrRequest("request used after free")

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.event.triggered else "pending"
        return f"<Request {self.kind} {state}>"


def waitall(requests: Iterable[Request]):
    """Sub-generator: wait for every request; returns list of statuses."""
    statuses = []
    for req in requests:
        status = yield from req.wait()
        statuses.append(status)
    return statuses


def waitany(requests: List[Request]):
    """Sub-generator: wait for the first completion; returns (index, status)."""
    if not requests:
        raise MPIErrRequest("waitany on empty request list")
    idx, status = yield WaitAny([r.event for r in requests])
    return idx, status


def testall(requests: Iterable[Request]) -> Tuple[bool, Optional[List[Status]]]:
    """Instantaneous: (all_done, statuses-or-None)."""
    reqs = list(requests)
    if all(r.completed for r in reqs):
        return True, [r.get_status() for r in reqs]
    return False, None
