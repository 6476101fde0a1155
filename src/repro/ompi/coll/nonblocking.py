"""Nonblocking collectives.

Like :func:`~repro.ompi.coll.barrier.ibarrier_runner`, each nonblocking
collective runs its blocking algorithm in a helper process and
completes a request — Open MPI's libnbc progression collapsed into the
simulator's concurrency.  Results land in ``request.payload``.

All ranks of a communicator must use the matching nonblocking call (the
helper traffic uses dedicated internal tags so it cannot interfere with
blocking collectives issued afterwards).
"""

from __future__ import annotations

from repro.ompi import coll
from repro.ompi.constants import Op
from repro.ompi.errors import MPIError
from repro.ompi.status import Status

_TAG_IBCAST = -30
_TAG_IALLREDUCE = -31
_TAG_IGATHER = -32
_TAG_IALLGATHER = -33


def runner(gen, request):
    """The helper process's body: run ``gen`` and complete ``request``
    with its result — or fail it with the MPI error ``gen`` raised."""
    def run():
        try:
            result = yield from gen
        except MPIError as err:
            # The operation's error belongs to its request: the wait or
            # test that observes the request raises it.
            request.fail(err)
        else:
            request.complete(Status(), payload=result)

    return run()


def _start(kind: str, comm, gen):
    """Sub-generator: run ``gen`` in a helper process; returns the
    request of kind ``kind`` it completes."""
    from repro.ompi.request import Request
    from repro.simtime.process import Spawn

    req = Request(kind)
    yield Spawn(runner(gen, req), name=f"{kind}-{comm.name}-r{comm.rank}")
    return req


def ibcast(comm, obj, root: int = 0, nbytes=None):
    """Sub-generator: MPI_Ibcast; request.payload is the object."""
    return _start("ibcast", comm,
                  coll.bcast(comm, obj, root, nbytes, tag=_TAG_IBCAST))


def iallreduce(comm, value, op: Op, nbytes=None):
    """Sub-generator: MPI_Iallreduce; request.payload is the result."""
    return _start("iallreduce", comm,
                  coll.allreduce(comm, value, op, nbytes, tag=_TAG_IALLREDUCE))


def igather(comm, value, root: int = 0, nbytes=None):
    """Sub-generator: MPI_Igather; request.payload is the list at root."""
    return _start("igather", comm,
                  coll.gather(comm, value, root, nbytes, tag=_TAG_IGATHER))


def iallgather(comm, value, nbytes=None):
    """Sub-generator: MPI_Iallgather; request.payload is the list."""
    return _start("iallgather", comm,
                  coll.allgather(comm, value, nbytes, tag=_TAG_IALLGATHER))
