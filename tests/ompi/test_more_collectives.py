"""split_type and nonblocking collectives."""

import pytest

from repro.ompi.constants import MAX, SUM
from repro.ompi.errors import MPIErrArg
from tests.ompi.conftest import sessions_program, world_program


@pytest.fixture(params=["world", "sessions"])
def program(request):
    return world_program if request.param == "world" else sessions_program


class TestSplitType:
    def test_shared_groups_by_node(self, mpi_run, program):
        def body(mpi, comm):
            node_comm = yield from comm.split_type("shared")
            out = (mpi.node, node_comm.size,
                   sorted(p.rank for p in node_comm.group.members()))
            yield from node_comm.barrier()
            node_comm.free()
            return out

        results = mpi_run(4, program(body), nodes=2, ppn=2)
        assert results[0] == (0, 2, [0, 1])
        assert results[3] == (1, 2, [2, 3])

    def test_unsupported_type_rejected(self, mpi_run, program):
        def body(mpi, comm):
            try:
                yield from comm.split_type("numa")
            except MPIErrArg:
                return "rejected"
            return "accepted"

        assert set(mpi_run(2, program(body))) == {"rejected"}


class TestNonblockingCollectives:
    def test_ibcast(self, mpi_run, program):
        def body(mpi, comm):
            obj = "payload" if comm.rank == 0 else None
            req = yield from comm.ibcast(obj, root=0)
            yield from req.wait()
            return req.payload

        assert set(mpi_run(4, program(body))) == {"payload"}

    def test_iallreduce(self, mpi_run, program):
        def body(mpi, comm):
            req = yield from comm.iallreduce(comm.rank, op=MAX)
            yield from req.wait()
            return req.payload

        assert set(mpi_run(4, program(body))) == {3}

    def test_igather(self, mpi_run, program):
        def body(mpi, comm):
            req = yield from comm.igather(comm.rank * 2, root=1)
            yield from req.wait()
            return req.payload

        results = mpi_run(3, program(body))
        assert results[1] == [0, 2, 4]
        assert results[0] is None

    def test_iallgather(self, mpi_run, program):
        def body(mpi, comm):
            req = yield from comm.iallgather(comm.rank)
            yield from req.wait()
            return req.payload

        assert mpi_run(3, program(body)) == [[0, 1, 2]] * 3

    def test_overlap_with_pt2pt(self, mpi_run, program):
        """A nonblocking allreduce progresses while user pt2pt flows."""

        def body(mpi, comm):
            req = yield from comm.iallreduce(1, op=SUM)
            peer = (comm.rank + 1) % comm.size
            got = yield from comm.sendrecv(comm.rank, peer,
                                           (comm.rank - 1) % comm.size,
                                           sendtag=9, recvtag=9)
            yield from req.wait()
            return (req.payload, got)

        results = mpi_run(4, program(body))
        for rank, (total, got) in enumerate(results):
            assert total == 4
            assert got == (rank - 1) % 4

    def test_two_outstanding_nonblocking_collectives(self, mpi_run, program):
        def body(mpi, comm):
            r1 = yield from comm.iallreduce(1, op=SUM)
            r2 = yield from comm.iallgather(comm.rank)
            yield from r2.wait()
            yield from r1.wait()
            return (r1.payload, r2.payload)

        results = mpi_run(3, program(body))
        assert set(r[0] for r in results) == {3}
        assert all(r[1] == [0, 1, 2] for r in results)
