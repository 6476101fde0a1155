"""MPI_Group semantics: ordering rules, set ops, sparse storage."""

import pytest

from repro.ompi.constants import UNDEFINED
from repro.ompi.errors import MPIErrArg, MPIErrGroup, MPIErrRank
from repro.ompi.group import IDENT, SIMILAR, UNEQUAL, Group
from repro.pmix.types import PmixProc


def procs(*ranks, ns="job"):
    return [PmixProc(ns, r) for r in ranks]


class TestBasics:
    def test_size_and_lookup(self):
        g = Group(procs(5, 3, 9))
        assert g.size == 3
        assert g.proc(0) == PmixProc("job", 5)
        assert g.rank_of(PmixProc("job", 9)) == 2

    def test_rank_of_absent_is_undefined(self):
        g = Group(procs(0, 1))
        assert g.rank_of(PmixProc("job", 7)) == UNDEFINED
        assert PmixProc("job", 7) not in g

    def test_duplicates_rejected(self):
        with pytest.raises(MPIErrGroup):
            Group(procs(1, 1))

    def test_empty_group(self):
        assert Group(()).size == 0

    def test_proc_out_of_range(self):
        g = Group(procs(0))
        with pytest.raises(MPIErrRank):
            g.proc(1)

    def test_use_after_free(self):
        g = Group(procs(0, 1))
        g.free()
        with pytest.raises(MPIErrGroup):
            g.size  # noqa: B018


class TestSparseStorage:
    def test_contiguous_detected(self):
        g = Group(procs(*range(100)))
        assert g.members().stride is not None

    def test_strided_detected(self):
        g = Group(procs(0, 3, 6, 9, 12))
        assert g.members().stride is not None
        assert g.proc(2) == PmixProc("job", 6)
        assert g.rank_of(PmixProc("job", 9)) == 3

    def test_irregular_stays_dense(self):
        g = Group(procs(0, 1, 2, 10))
        assert g.members().stride is None

    def test_small_groups_stay_dense(self):
        assert Group(procs(0, 1, 2)).members().stride is None

    def test_strided_semantics_match_dense(self):
        members = procs(2, 5, 8, 11, 14, 17)
        sparse = Group(members)
        assert sparse.members().stride is not None
        assert sparse.members() == tuple(members)
        assert [sparse.rank_of(p) for p in members] == list(range(6))
        # A rank between stride points is not a member.
        assert sparse.rank_of(PmixProc("job", 3)) == UNDEFINED

    def test_mixed_namespace_not_strided(self):
        g = Group([PmixProc("a", 0), PmixProc("b", 1), PmixProc("a", 2), PmixProc("b", 3)])
        assert g.members().stride is None


class TestCompare:
    def test_ident(self):
        assert Group(procs(1, 2)).compare(Group(procs(1, 2))) == IDENT

    def test_similar(self):
        assert Group(procs(1, 2)).compare(Group(procs(2, 1))) == SIMILAR

    def test_unequal(self):
        assert Group(procs(1, 2)).compare(Group(procs(1, 3))) == UNEQUAL


class TestSetOps:
    def test_union_order(self):
        """MPI order: self's members first, then other's new members."""
        g = Group(procs(3, 1)).union(Group(procs(2, 1)))
        assert g.members() == tuple(procs(3, 1, 2))

    def test_intersection_order(self):
        g = Group(procs(3, 1, 2)).intersection(Group(procs(2, 3)))
        assert g.members() == tuple(procs(3, 2))

    def test_difference(self):
        g = Group(procs(3, 1, 2)).difference(Group(procs(1)))
        assert g.members() == tuple(procs(3, 2))

    def test_union_with_empty(self):
        g = Group(procs(1, 2))
        empty = Group(())
        assert g.union(empty).compare(g) == IDENT
        assert empty.union(g).members() == g.members()

    def test_intersection_disjoint_is_empty(self):
        assert Group(procs(1)).intersection(Group(procs(2))).size == 0


class TestInclExcl:
    def test_incl_reorders(self):
        g = Group(procs(10, 20, 30, 40)).incl([3, 0])
        assert g.members() == tuple(procs(40, 10))

    def test_incl_duplicate_rejected(self):
        with pytest.raises(MPIErrRank):
            Group(procs(0, 1)).incl([0, 0])

    def test_excl(self):
        g = Group(procs(10, 20, 30, 40)).excl([1, 3])
        assert g.members() == tuple(procs(10, 30))

    def test_excl_out_of_range(self):
        with pytest.raises(MPIErrRank):
            Group(procs(0)).excl([5])

    def test_range_incl(self):
        g = Group(procs(*range(10))).range_incl([(0, 8, 2)])
        assert g.members() == tuple(procs(0, 2, 4, 6, 8))

    def test_range_incl_descending(self):
        g = Group(procs(*range(10))).range_incl([(4, 0, -2)])
        assert g.members() == tuple(procs(4, 2, 0))

    def test_range_excl(self):
        g = Group(procs(*range(6))).range_excl([(1, 3, 1)])
        assert g.members() == tuple(procs(0, 4, 5))

    def test_zero_stride_rejected(self):
        with pytest.raises(MPIErrArg):
            Group(procs(*range(4))).range_incl([(0, 3, 0)])


class TestTranslateRanks:
    def test_translate(self):
        a = Group(procs(10, 20, 30))
        b = Group(procs(30, 10))
        assert a.translate_ranks([0, 1, 2], b) == [1, UNDEFINED, 0]

    def test_translate_roundtrip(self):
        a = Group(procs(5, 6, 7, 8))
        b = Group(procs(8, 7, 6, 5))
        forth = a.translate_ranks([0, 1, 2, 3], b)
        back = b.translate_ranks(forth, a)
        assert back == [0, 1, 2, 3]


class TestSharedMembership:
    """A group holds a ProcSet; derived groups get their own."""

    def test_group_shares_the_procset_it_was_given(self):
        from repro.pmix.types import ProcSet

        world = ProcSet(procs(*range(8)))
        a, b = Group(world), Group(world)
        assert a.members() is world and b.members() is world

    def test_derived_groups_never_inherit_the_parents_facts(self):
        parent = Group(procs(*range(0, 16, 2)))        # strided, sorted
        assert parent.members().stride is not None and parent.members().is_sorted
        other = Group(procs(6, 4, 40))
        derived = {
            "union": parent.union(other),
            "intersection": parent.intersection(other),
            "difference": parent.difference(other),
            "incl": parent.incl([5, 1, 3]),
            "excl": parent.excl([1]),
        }
        expect = {
            "union": list(range(0, 16, 2)) + [40],
            "intersection": [4, 6],
            "difference": [0, 2, 8, 10, 12, 14],
            "incl": [10, 2, 6],
            "excl": [0, 4, 6, 8, 10, 12, 14],
        }
        for name, group in derived.items():
            members = group.members()
            assert members is not parent.members(), name
            ranks = [p.rank for p in members]
            assert ranks == expect[name], name
            # Every fact is the derived membership's own.
            assert members.stride is None, name
            assert members.is_sorted == (ranks == sorted(ranks)), name
            ordered = members.canonical()
            assert [p.rank for p in ordered] == sorted(ranks), name
            assert members.member_key == (
                len(ranks), ordered[0], ordered[-1], sum(ranks)), name
            assert [group.rank_of(p) for p in members] == list(range(len(ranks)))
        # ... and the parent's are untouched.
        assert parent.members().stride == ("job", 0, 8, 2)
