"""Datatypes and payload sizing."""

import numpy as np
import pytest

from repro.ompi.datatype import (
    BYTE,
    DOUBLE,
    INT,
    Datatype,
    sizeof_payload,
)
from repro.ompi.errors import MPIErrArg
from repro.ompi.status import Status
from tests.ompi.conftest import world_program


class TestBasicTypes:
    @pytest.mark.parametrize("dt,size", [(BYTE, 1), (INT, 4), (DOUBLE, 8)])
    def test_sizes(self, dt, size):
        assert dt.size == size
        assert dt.wire_size(10) == 10 * size

    def test_numpy_mapping(self):
        assert DOUBLE.np_dtype == np.dtype(np.float64)
        assert INT.np_dtype == np.dtype("int32")
        assert INT.create_contiguous(2).np_dtype is None

    def test_predefined_type_cannot_be_freed_and_serves_the_next_world(self, mpi_run):
        """The constants are shared by every world of the process (a
        serve pool worker runs many): freeing one is erroneous in MPI and
        must leave it usable."""
        def first(mpi, comm):
            derived = INT.create_contiguous(2).commit()
            derived.free()                      # a derived type may be freed
            with pytest.raises(MPIErrArg, match="predefined"):
                INT.free()
            yield from comm.barrier()

        def second(mpi, comm):
            if comm.rank == 0:
                yield from comm.send([1, 2, 3], 1, tag=4, nbytes=INT.wire_size(3))
                return None
            status = Status()
            yield from comm.recv(0, tag=4, status=status)
            return status.count

        mpi_run(2, world_program(first))
        assert mpi_run(2, world_program(second))[1] == 12


class TestDerivedTypes:
    def test_contiguous(self):
        dt = INT.create_contiguous(5).commit()
        assert dt.size == 20
        assert dt.extent == 20

    def test_vector_with_gaps(self):
        # 3 blocks of 2 ints, stride 4 ints: data 24B, extent covers gaps.
        dt = INT.create_vector(3, 2, 4).commit()
        assert dt.size == 3 * 2 * 4
        assert dt.extent == (4 * 2 + 2) * 4

    def test_vector_zero_count(self):
        dt = INT.create_vector(0, 1, 1).commit()
        assert dt.size == 0
        assert dt.extent == 0

    def test_uncommitted_rejected(self):
        dt = INT.create_contiguous(2)
        with pytest.raises(MPIErrArg):
            dt.wire_size(1)

    def test_negative_count_rejected(self):
        with pytest.raises(MPIErrArg):
            INT.create_contiguous(-1)

    def test_use_after_free(self):
        dt = INT.create_contiguous(2).commit()
        dt.free()
        with pytest.raises(MPIErrArg):
            dt.wire_size(1)

    def test_negative_size_rejected(self):
        with pytest.raises(MPIErrArg):
            Datatype("bad", -1)


class TestSizeofPayload:
    def test_explicit_type_count_wins(self):
        assert sizeof_payload("whatever", DOUBLE, 4) == 32

    def test_numpy_nbytes(self):
        arr = np.zeros(100, dtype=np.float64)
        assert sizeof_payload(arr) == 800

    def test_bytes(self):
        assert sizeof_payload(b"12345") == 5

    def test_none_is_empty(self):
        assert sizeof_payload(None) == 0

    def test_scalars(self):
        assert sizeof_payload(1) == 8
        assert sizeof_payload(1.5) == 8

    def test_containers_recursive(self):
        assert sizeof_payload([1, 2, 3]) == 8 + 24
        assert sizeof_payload({"k": 1.0}) >= 9

    def test_unknown_object_default(self):
        class Thing:
            pass

        assert sizeof_payload(Thing()) == 64
