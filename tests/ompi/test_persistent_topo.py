"""Persistent requests, Cartesian topologies, errhandler dispatch,
MPI_Wtime, and the PML exCID-fallback rule."""

import pytest

from repro.ompi.constants import PROC_NULL, SUM
from repro.ompi.errors import ERRORS_RETURN, MPIAbort, MPIErrComm, MPIErrRequest, MPIErrRevoked
from repro.ompi.persistent import startall
from repro.ompi.persistent import waitall as pwaitall
from repro.ompi.topo import CartTopology
from tests.ompi.conftest import sessions_program, world_program


@pytest.fixture(params=["world", "sessions"])
def program(request):
    return world_program if request.param == "world" else sessions_program


class TestPersistentRequests:
    def test_restartable_halo_pattern(self, mpi_run, program):
        def body(mpi, comm):
            peer = 1 - comm.rank
            box = {"value": None}
            psend = comm.send_init(None, peer, tag=1, nbytes=64)
            precv = comm.recv_init(source=peer, tag=1)
            received = []
            for step in range(5):
                psend.obj = f"step{step}-from{comm.rank}"
                yield from startall([precv, psend])
                yield from pwaitall([precv, psend])
                received.append(precv.payload)
            psend.free()
            precv.free()
            return received

        results = mpi_run(2, program(body))
        assert results[0] == [f"step{i}-from1" for i in range(5)]
        assert results[1] == [f"step{i}-from0" for i in range(5)]
        assert len(results[0]) == 5

    def test_double_start_rejected(self, mpi_run, program):
        def body(mpi, comm):
            precv = comm.recv_init(source=0, tag=1)
            yield from precv.start()
            try:
                yield from precv.start()
            except MPIErrRequest:
                result = "rejected"
            else:
                result = "accepted"
            if comm.rank == 0:
                yield from comm.send(None, 1, tag=1, nbytes=0)
            if comm.rank == 1:
                yield from precv.wait()
            # rank 0's own recv never matches; cancel by leaking (freed
            # comms would complain, so complete it):
            if comm.rank == 0:
                yield from comm.send(None, 0, tag=1, nbytes=0)
                yield from precv.wait()
            precv.free()
            return result

        assert set(mpi_run(2, program(body))) == {"rejected"}

    def test_wait_before_start_rejected(self, mpi_run, program):
        def body(mpi, comm):
            preq = comm.recv_init(source=0, tag=1)
            try:
                yield from preq.wait()
            except MPIErrRequest:
                return "rejected"
            return "accepted"

        assert mpi_run(1, program(body), nodes=1) == ["rejected"]

    def test_free_while_active_rejected(self, mpi_run, program):
        def body(mpi, comm):
            preq = comm.recv_init(source=0, tag=1)
            yield from preq.start()
            try:
                preq.free()
            except MPIErrRequest:
                result = "rejected"
            else:
                result = "accepted"
            yield from comm.send(None, comm.rank, tag=1, nbytes=0)  # self-send
            yield from preq.wait()
            preq.free()
            return result

        assert mpi_run(1, program(body), nodes=1) == ["rejected"]


class TestCartTopology:
    def test_coords_rank_roundtrip(self):
        topo = CartTopology((3, 4), (True, True))
        for r in range(12):
            assert topo.rank(topo.coords(r)) == r

    def test_row_major_like_mpi(self):
        topo = CartTopology((2, 3), (False, False))
        assert topo.coords(0) == (0, 0)
        assert topo.coords(1) == (0, 1)
        assert topo.coords(3) == (1, 0)

    def test_shift_periodic_wraps(self):
        topo = CartTopology((4,), (True,))
        src, dest = topo.shift(0, 0, 1)
        assert (src, dest) == (3, 1)

    def test_shift_open_edge_proc_null(self):
        topo = CartTopology((4,), (False,))
        src, dest = topo.shift(0, 0, 1)
        assert src == PROC_NULL
        assert dest == 1

    def test_cart_create_and_exchange(self, mpi_run, program):
        def body(mpi, comm):
            cart = yield from comm.create_cart(dims=(2, 3))
            me = cart.cart.coords(cart.rank)
            _src, east = cart.cart.shift(cart.rank, 1, 1)
            got = yield from cart.sendrecv(
                me, east, cart.cart.shift(cart.rank, 1, -1)[1], sendtag=4, recvtag=4
            )
            cart.free()
            # I receive the coords of my west neighbor.
            expected = (me[0], (me[1] - 1) % 3)
            return got == expected

        assert set(mpi_run(6, program(body))) == {True}

    def test_bad_grid_rejected(self, mpi_run, program):
        from repro.ompi.errors import MPIErrArg

        def body(mpi, comm):
            try:
                yield from comm.create_cart(dims=(7, 2))
            except MPIErrArg:
                return "rejected"
            return "accepted"

        assert set(mpi_run(4, program(body))) == {"rejected"}


class TestErrhandlerDispatch:
    """An error a call detects goes through the communicator's handler
    (here: a collective on a revoked communicator)."""

    def test_fatal_aborts(self, mpi_run, program):
        def body(mpi, comm):
            comm.revoke()
            try:
                yield from comm.barrier()
            except MPIAbort:
                return "aborted"
            return "continued"

        assert set(mpi_run(1, program(body), nodes=1)) == {"aborted"}

    def test_errors_return_raises_original(self, mpi_run, program):
        def body(mpi, comm):
            comm.set_errhandler(ERRORS_RETURN)
            comm.revoke()
            try:
                yield from comm.barrier()
            except MPIAbort:
                return "aborted"
            except MPIErrRevoked:
                return "returned"
            return "continued"

        assert set(mpi_run(1, program(body), nodes=1)) == {"returned"}


class TestMisc:
    def test_wtime_advances(self, mpi_run, program):
        def body(mpi, comm):
            from repro.simtime.process import Sleep

            t0 = mpi.wtime()
            yield Sleep(1e-3)
            return mpi.wtime() - t0

        results = mpi_run(1, program(body), nodes=1)
        assert results[0] == pytest.approx(1e-3)

    def test_cm_pml_falls_back_to_consensus(self, mpi_run):
        """§III-B3: without ob1, the exCID generator is disabled."""
        from repro.ompi.config import MpiConfig

        config = MpiConfig(cid_mode="excid", pml="cm")

        def main(mpi):
            world = yield from mpi.mpi_init()
            dup = yield from world.dup()
            no_excid = dup.excid is None       # consensus path was used
            cids = yield from world.allgather(dup.local_cid)
            dup.free()
            # And the Sessions constructor refuses outright.
            session = yield from mpi.session_init()
            group = yield from session.group_from_pset("mpi://world")
            try:
                yield from mpi.comm_create_from_group(group, "nope")
            except MPIErrComm:
                refused = True
            else:
                refused = False
            yield from session.finalize()
            yield from mpi.mpi_finalize()
            return (no_excid, len(set(cids)) == 1, refused)

        assert set(mpi_run(2, main, config=config)) == {(True, True, True)}
