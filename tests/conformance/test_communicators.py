"""Communicator rows of docs/conformance.md (the xDSL MPI-dialect
table's "Communicators"), each checked against the MPI-4.0 clause named
in its docstring, over every way of obtaining a communicator."""

import pytest

from repro.ompi.constants import ANY_SOURCE, ANY_TAG, SUM, UNDEFINED
from tests.conformance.adapter import NPROCS, WAYS, run, subgroup_ranks

pytestmark = pytest.mark.parametrize("way", WAYS)


def test_rank_and_size_number_the_group(way):
    """MPI-4.0 §7.4.1 (MPI_COMM_SIZE, MPI_COMM_RANK): the size is the
    number of processes in the group, and the ranks are 0..size-1, one
    per process."""
    def body(mpi, comm):
        return (comm.rank, comm.size)
        yield

    results = run(way, body)
    assert results == [(r, len(results)) for r in range(len(results))]


def test_comm_group_is_the_group_it_was_built_from(way):
    """MPI-4.0 §7.3.2 (MPI_COMM_GROUP): returns the group of the
    communicator: its processes, in communicator-rank order."""
    def body(mpi, comm):
        return [p.rank for p in comm.get_group().members()]
        yield

    world = subgroup_ranks(NPROCS) if way == "subgroup" else list(range(NPROCS))
    assert run(way, body) == [world] * len(world)


def test_dup_has_its_own_context(way):
    """MPI-4.0 §7.4.2 (MPI_COMM_DUP): a new communicator with the same
    group and a new context; a message sent on one communicator cannot
    be received on the other."""
    def body(mpi, comm):
        dup = yield from comm.dup()
        if comm.rank == 0:
            yield from dup.send("on-dup", dest=1, tag=0)
            yield from comm.send("on-comm", dest=1, tag=0)
        got = None
        if comm.rank == 1:
            first = yield from comm.recv(ANY_SOURCE, ANY_TAG)
            second = yield from dup.recv(ANY_SOURCE, ANY_TAG)
            got = (first, second, dup.size == comm.size)
        dup.free()
        return got

    assert run(way, body)[1] == ("on-comm", "on-dup", True)


def test_split_orders_by_key_then_rank(way):
    """MPI-4.0 §7.4.2 (MPI_COMM_SPLIT): processes passing the same
    color form one group, "ordered according to the value of key, with
    ties broken according to their rank in the old group"; a process
    passing MPI_UNDEFINED gets MPI_COMM_NULL."""
    def body(mpi, comm):
        color = UNDEFINED if comm.rank == 0 else comm.rank % 2
        new = yield from comm.split(color=color, key=-(comm.rank // 2))
        if new is None:
            return None
        out = (color, new.rank, new.size)
        new.free()
        return out

    results = run(way, body)
    assert results[0] is None
    for color in (0, 1):
        ranks = [r for r in range(1, len(results)) if r % 2 == color]
        want = sorted(ranks, key=lambda r: (-(r // 2), r))
        assert [results[r][1] for r in ranks] == [want.index(r) for r in ranks]
        assert {results[r][2] for r in ranks} == {len(ranks)}


def test_create_gives_non_members_comm_null(way):
    """MPI-4.0 §7.4.2 (MPI_COMM_CREATE): called by every process of
    the parent; a process not in the group gets MPI_COMM_NULL, the
    members get a communicator over the group."""
    def body(mpi, comm):
        group = comm.get_group().incl([0, comm.size - 1])
        new = yield from comm.create(group)
        if new is None:
            return None
        out = (new.rank, new.size)
        yield from new.barrier()
        new.free()
        return out

    results = run(way, body)
    assert results[0] == (0, 2) and results[-1] == (1, 2)
    assert results[1:-1] == [None] * (len(results) - 2)


def test_create_group_is_called_by_members_only(way):
    """MPI-4.0 §7.4.2 (MPI_COMM_CREATE_GROUP): "collective only over
    the processes in group"; the others do not call it, and the members
    get a communicator over the group."""
    def body(mpi, comm):
        if comm.rank % 2:
            return None
        group = comm.get_group().incl(list(range(0, comm.size, 2)))
        new = yield from comm.create_group(group, tag=4)
        total = yield from new.allreduce(1, op=SUM)
        new.free()
        return (new.rank, total)

    results = run(way, body)
    evens = list(range(0, len(results), 2))
    assert [results[r] for r in evens] == [(i, len(evens)) for i in range(len(evens))]


def test_freeing_a_group_leaves_its_communicator_usable(way):
    """MPI-4.0 §7.3.3 (MPI_GROUP_FREE): the handle is set to
    MPI_GROUP_NULL, and "any on-going operation using this group will
    complete normally"; a communicator built from the group, and one
    whose MPI_COMM_GROUP handle is freed, stay usable."""
    def body(mpi, comm):
        group = comm.get_group()
        sub = yield from comm.create_group(group, tag=6)
        group.free()
        comm.get_group().free()
        dup = yield from sub.dup()
        total = yield from dup.allreduce(1, op=SUM)
        also = yield from comm.allreduce(1, op=SUM)
        dup.free()
        sub.free()
        return (total, also)

    results = run(way, body)
    assert results == [(len(results), len(results))] * len(results)
