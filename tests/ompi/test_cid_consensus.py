"""The legacy consensus CID allocator (paper §III-B2)."""

from collections import Counter

import pytest

from repro.api import SimSpec, run_world
from repro.machine.presets import laptop
from repro.ompi.cid import MAX_CID, CidTable
from repro.ompi.config import MpiConfig
from repro.ompi.constants import _TAG_ALLGATHER, _TAG_CID, SUM
from repro.ompi.errors import MPIErrIntern
from repro.ompi.pml.ob1 import Ob1Endpoint
from tests.ompi.conftest import world_program

#: The three constructors whose consensus runs over a different member
#: list: every parent rank (dup), a reversed-key half of the parent
#: (split: members [4, 2, 0] and [5, 3, 1]), an unsorted subgroup
#: (create_group over parent ranks [3, 0, 5, 2]).
CONSTRUCTORS = ("dup", "split", "create_group")

#: (t_end, pml.packets) of :meth:`TestConsensus.test_fragmented_split_is_pinned`.
PINNED_SPLIT = (0.004800244658872456, 430)
#: Sends per tag in that run: the split's allgather and its consensus
#: (init and finalize send nothing through ob1).
PINNED_SPLIT_TAGS = {_TAG_ALLGATHER: 30, _TAG_CID: 400}


def construct(kind, comm):
    """Sub-generator: build a ``kind`` communicator from ``comm``;
    None on a rank outside create_group's subgroup."""
    if kind == "dup":
        return (yield from comm.dup())
    if kind == "split":
        return (yield from comm.split(color=comm.rank % 2, key=-comm.rank))
    members = [3, 0, 5, 2]
    if comm.rank not in members:
        return None
    return (yield from comm.create_group(comm.get_group().incl(members), tag=5))


def fragment_table(mpi, rank):
    """Block eight staggered CID indices, a different set per rank."""
    sentinel = object()
    for i in range(8):
        idx = 2 + (rank + i * 3) % 24
        if mpi.cid_table.is_free(idx):
            mpi.cid_table.reserve(idx, sentinel)


class TestCidTable:
    def test_lowest_free_fills_holes(self):
        t = CidTable()
        for i in range(4):
            t.reserve(i, object())
        t.release(1)
        assert t.lowest_free() == 1

    def test_lowest_free_with_floor(self):
        t = CidTable()
        t.reserve(0, object())
        assert t.lowest_free(at_least=5) == 5

    def test_double_reserve_rejected(self):
        t = CidTable()
        t.reserve(3, object())
        with pytest.raises(MPIErrIntern):
            t.reserve(3, object())

    def test_release_free_rejected(self):
        t = CidTable()
        with pytest.raises(MPIErrIntern):
            t.release(0)

    def test_get(self):
        t = CidTable()
        comm = object()
        t.reserve(2, comm)
        assert t.get(2) is comm
        assert t.get(0) is None
        assert t.get(99) is None

    def test_live_count(self):
        t = CidTable()
        t.reserve(0, object())
        t.reserve(5, object())
        assert t.live_count == 2
        t.release(0)
        assert t.live_count == 1


class TestConsensus:
    def test_all_ranks_agree(self, mpi_run):
        def body(mpi, comm):
            dup = yield from comm.dup()
            cids = yield from comm.allgather(dup.local_cid)
            dup.free()
            return len(set(cids)) == 1

        assert set(mpi_run(4, world_program(body))) == {True}

    @pytest.mark.parametrize("kind", CONSTRUCTORS)
    def test_agreement_despite_asymmetric_fragmentation(self, mpi_run, kind):
        """Each rank fragments its table differently; the consensus
        still converges on a mutually free index — over the parent for
        dup, within the subgroup for split and create_group."""

        def body(mpi, comm):
            sentinel = object()
            # Rank r blocks indices 2+r, 2+r+1 ... staggered holes.
            for i in range(3):
                idx = 2 + comm.rank + i * 2
                if mpi.cid_table.is_free(idx):
                    mpi.cid_table.reserve(idx, sentinel)
            new = yield from construct(kind, comm)
            if new is None:
                return None
            agreed = yield from new.allgather(new.local_cid)
            locally_valid = mpi.cid_table.get(new.local_cid) is new
            new.free()
            return (len(set(agreed)) == 1, locally_valid)

        results = mpi_run(6, world_program(body))
        assert set(results) - {None} == {(True, True)}

    @pytest.mark.parametrize("kind", CONSTRUCTORS)
    def test_fragmentation_costs_rounds(self, mpi_run, kind):
        """More rounds of reductions when proposals conflict (the
        weakness §IV-C2 discusses)."""

        def timed(fragment):
            def body(mpi, comm):
                if fragment:
                    fragment_table(mpi, comm.rank)
                yield from comm.barrier()
                t0 = mpi.engine.now
                new = yield from construct(kind, comm)
                elapsed = mpi.engine.now - t0
                if new is None:
                    return 0.0
                new.free()
                return elapsed

            return max(mpi_run(6, world_program(body)))

        assert timed(fragment=True) > timed(fragment=False)

    def test_fragmented_split_is_pinned(self, monkeypatch):
        """The subgroup loop's member order and tag fix the simulated
        time, the packet count and the tags on the wire: a fragmented
        split of six ranks into two reversed-key halves."""
        tags = Counter()
        start_send = Ob1Endpoint.start_send

        def counting(self, comm, payload, dest, tag, *rest):
            tags[tag] += 1
            return start_send(self, comm, payload, dest, tag, *rest)

        def main(mpi):
            comm = yield from mpi.mpi_init()
            fragment_table(mpi, comm.rank)
            new = yield from construct("split", comm)
            new.free()
            yield from mpi.mpi_finalize()

        monkeypatch.setattr(Ob1Endpoint, "start_send", counting)
        res = run_world(SimSpec(nprocs=6, machine=laptop(num_nodes=2), ppn=3,
                                config=MpiConfig.baseline()), main)
        res.raise_first_failure()
        assert (res.t_end, res.counters["pml.packets"]) == PINNED_SPLIT
        assert dict(tags) == PINNED_SPLIT_TAGS

    def test_subset_consensus_via_create_group(self, mpi_run):
        def body(mpi, comm):
            group = comm.get_group().incl([0, 2])
            if comm.rank in (0, 2):
                sub = yield from comm.create_group(group, tag=7)
                total = yield from sub.allreduce(1, op=SUM)
                cid = sub.local_cid
                sub.free()
                return (total, cid)
            return None

        results = mpi_run(4, world_program(body))
        assert results[0][0] == 2
        assert results[0][1] == results[2][1]  # members agree

    def test_cid_space_bound(self):
        t = CidTable()
        with pytest.raises(MPIErrIntern):
            t.lowest_free(at_least=MAX_CID)
