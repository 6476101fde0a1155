"""One-sided communication (windows): allocate, put, fence."""

import numpy as np
import pytest

from repro.ompi.errors import MPIErrArg
from repro.ompi.win import Window
from tests.ompi.conftest import sessions_program, world_program


@pytest.fixture(params=["world", "sessions"])
def program(request):
    return world_program if request.param == "world" else sessions_program


class TestActiveTarget:
    def test_put_visible_after_fence(self, mpi_run, program):
        def body(mpi, comm):
            win = yield from Window.allocate(comm, 4)
            yield from win.fence()
            if comm.rank == 0:
                yield from win.put(np.array([1.0, 2.0]), target=1, offset=1)
            yield from win.fence()
            out = win.memory.tolist()
            yield from comm.barrier()
            win.free()
            return out

        results = mpi_run(2, program(body))
        assert results[1] == [0.0, 1.0, 2.0, 0.0]

    def test_put_not_visible_before_fence(self, mpi_run, program):
        def body(mpi, comm):
            win = yield from Window.allocate(comm, 2)
            yield from win.fence()
            if comm.rank == 0:
                yield from win.put(np.array([9.0]), target=1)
                yield from comm.send(None, 1, tag=1, nbytes=0)  # "I issued it"
                yield from win.fence()
                win.free()
                return None
            yield from comm.recv(0, tag=1)
            before = win.memory[0]
            yield from win.fence()
            after = win.memory[0]
            win.free()
            return (before, after)

        results = mpi_run(2, program(body))
        assert results[1] == (0.0, 9.0)


class TestValidation:
    def test_out_of_bounds_rejected(self, mpi_run, program):
        def body(mpi, comm):
            win = yield from Window.allocate(comm, 2)
            try:
                yield from win.put(np.array([1.0, 2.0, 3.0]), target=0)
            except MPIErrArg:
                result = "rejected"
            else:
                result = "accepted"
            yield from win.fence()
            yield from comm.barrier()
            win.free()
            return result

        assert set(mpi_run(2, program(body))) == {"rejected"}

    def test_free_with_pending_ops_rejected(self, mpi_run, program):
        def body(mpi, comm):
            win = yield from Window.allocate(comm, 1)
            yield from win.put(np.array([1.0]), target=0)
            try:
                win.free()
            except MPIErrArg:
                result = "rejected"
                yield from win.fence()
                yield from comm.barrier()
                win.free()
            else:
                result = "accepted"
            return result

        assert set(mpi_run(2, program(body))) == {"rejected"}
