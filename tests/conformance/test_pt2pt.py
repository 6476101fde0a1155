"""Point-to-point rows of docs/conformance.md: blocking and nonblocking
send/recv, status and error codes (the xDSL MPI-dialect feature table),
each checked against the MPI-4.0 clause named in its docstring, over
every way of obtaining a communicator."""

import pytest

from repro.ompi.constants import ANY_SOURCE, ANY_TAG
from repro.ompi.errors import (
    ERR_COMM,
    ERR_RANK,
    ERR_TAG,
    ERRORS_RETURN,
    MPIError,
)
from repro.ompi.request import waitall
from repro.ompi.status import Status
from tests.conformance.adapter import WAYS, run

pytestmark = pytest.mark.parametrize("way", WAYS)


def test_blocking_send_recv_delivers_the_message(way):
    """MPI-4.0 §3.2 (MPI_SEND, MPI_RECV): a blocking receive returns
    the data of the matching blocking send."""
    def body(mpi, comm):
        if comm.rank == 0:
            yield from comm.send({"from": 0}, dest=comm.size - 1, tag=7)
            return None
        if comm.rank == comm.size - 1:
            return (yield from comm.recv(source=0, tag=7))
        return None
        yield

    assert run(way, body)[-1] == {"from": 0}


def test_messages_do_not_overtake(way):
    """MPI-4.0 §3.5 (Semantics of point-to-point communication, order):
    "If a sender sends two messages in succession to the same
    destination, and both match the same receive, then this operation
    cannot receive the second message if the first one is still
    pending."  """
    def body(mpi, comm):
        if comm.rank == 0:
            for i in range(4):
                yield from comm.send(i, dest=1, tag=i)
            return None
        if comm.rank == 1:
            got = []
            for _ in range(4):
                got.append((yield from comm.recv(source=0, tag=ANY_TAG)))
            return got
        return None

    assert run(way, body)[1] == [0, 1, 2, 3]


def test_nonblocking_pair_completes_by_wait(way):
    """MPI-4.0 §3.7.2-§3.7.3 (MPI_ISEND, MPI_IRECV, MPI_WAIT): the
    nonblocking calls start the operations and MPI_WAIT completes them;
    the receive buffer then holds the message."""
    def body(mpi, comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        rreq = comm.irecv(source=left, tag=3)
        sreq = yield from comm.isend(comm.rank, dest=right, tag=3)
        yield from sreq.wait()
        yield from rreq.wait()
        return rreq.payload

    results = run(way, body)
    assert results == [(r - 1) % len(results) for r in range(len(results))]


def test_test_is_false_until_the_message_is_sent(way):
    """MPI-4.0 §3.7.3 (MPI_TEST): "returns flag = true if the operation
    identified by request is complete", false otherwise; a receive whose
    message has not been sent is not complete."""
    def body(mpi, comm):
        if comm.rank == 1:
            req = comm.irecv(source=0, tag=1)
            early, _ = req.test()
            yield from comm.send("go", dest=0, tag=2)
            yield from req.wait()
            late, status = req.test()
            return (early, late, status.source, req.payload)
        if comm.rank == 0:
            yield from comm.recv(source=1, tag=2)
            yield from comm.send("data", dest=1, tag=1)
        return None

    assert run(way, body)[1] == (False, True, 0, "data")


def test_waitall_completes_every_request(way):
    """MPI-4.0 §3.7.5 (MPI_WAITALL): blocks until all communications
    associated with the requests in the list complete, and returns the
    status of each in list order."""
    def body(mpi, comm):
        if comm.rank == 0:
            reqs = [comm.irecv(source=src, tag=5) for src in range(1, comm.size)]
            statuses = yield from waitall(reqs)
            return ([s.source for s in statuses], [r.payload for r in reqs])
        yield from comm.send(comm.rank * 10, dest=0, tag=5)
        return None

    sources, payloads = run(way, body)[0]
    assert sources == list(range(1, len(payloads) + 1))
    assert payloads == [s * 10 for s in sources]


def test_status_names_source_and_tag_of_a_wildcard_receive(way):
    """MPI-4.0 §3.2.5 (Return status): after a receive with
    MPI_ANY_SOURCE and MPI_ANY_TAG the status holds the source and tag
    of the message received (MPI_SOURCE, MPI_TAG), and MPI_GET_COUNT its
    size."""
    def body(mpi, comm):
        last = comm.size - 1
        if comm.rank == last:
            yield from comm.send(b"12345", dest=0, tag=9)
        elif comm.rank == 0:
            status = Status()
            data = yield from comm.recv(ANY_SOURCE, ANY_TAG, status=status)
            return (data, status.source, status.tag, status.count)
        return None

    results = run(way, body)
    assert results[0] == (b"12345", len(results) - 1, 9, 5)


def _error_class(body):
    """A rank program that runs ``body(comm)`` under MPI_ERRORS_RETURN
    and returns the error class it raised (None if it raised none)."""
    def program(mpi, comm):
        comm.set_errhandler(ERRORS_RETURN)
        try:
            yield from body(comm)
        except MPIError as err:
            return err.errclass
        return None

    return program


def test_negative_tag_is_err_tag(way):
    """MPI-4.0 §3.2.3 (Message envelope: a tag is in 0..MPI_TAG_UB) and
    §9.4 (Table 9.1: MPI_ERR_TAG, "Invalid tag argument")."""
    def body(comm):
        yield from comm.send(0, dest=0, tag=-5)

    assert set(run(way, _error_class(body))) == {ERR_TAG}


def test_out_of_range_rank_is_err_rank(way):
    """MPI-4.0 §3.2.3 (dest is a rank of the communicator's group, or
    MPI_PROC_NULL) and §9.4 (Table 9.1: MPI_ERR_RANK, "Invalid source
    or destination rank")."""
    def body(comm):
        yield from comm.send(0, dest=comm.size, tag=0)

    assert set(run(way, _error_class(body))) == {ERR_RANK}


def test_freed_communicator_is_err_comm(way):
    """MPI-4.0 §7.4.3 (MPI_COMM_FREE sets the handle to MPI_COMM_NULL)
    and §9.4 (Table 9.1: MPI_ERR_COMM, "Invalid communicator")."""
    def body(comm):
        dup = yield from comm.dup()
        dup.free()
        yield from dup.send(0, dest=0, tag=0)

    assert set(run(way, _error_class(body))) == {ERR_COMM}
