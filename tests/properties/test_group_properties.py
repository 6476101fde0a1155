"""Property-based tests: Group algebra against a Python set/list model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ompi.constants import UNDEFINED
from repro.ompi.group import Group
from repro.pmix.types import PmixProc

ranks = st.lists(
    st.integers(min_value=0, max_value=63), min_size=0, max_size=24, unique=True
)


def to_group(rs):
    return Group([PmixProc("job", r) for r in rs])


@given(ranks, ranks)
@settings(max_examples=150)
def test_union_model(a, b):
    g = to_group(a).union(to_group(b))
    expected = list(a) + [r for r in b if r not in set(a)]
    assert [p.rank for p in g.members()] == expected


@given(ranks, ranks)
@settings(max_examples=150)
def test_intersection_model(a, b):
    g = to_group(a).intersection(to_group(b))
    assert [p.rank for p in g.members()] == [r for r in a if r in set(b)]


@given(ranks, ranks)
@settings(max_examples=150)
def test_difference_model(a, b):
    g = to_group(a).difference(to_group(b))
    assert [p.rank for p in g.members()] == [r for r in a if r not in set(b)]


@given(ranks)
@settings(max_examples=100)
def test_rank_of_proc_roundtrip(a):
    g = to_group(a)
    for i in range(g.size):
        assert g.rank_of(g.proc(i)) == i


@given(ranks, st.data())
@settings(max_examples=100)
def test_incl_model(a, data):
    g = to_group(a)
    if g.size == 0:
        return
    picks = data.draw(
        st.lists(st.integers(0, g.size - 1), max_size=g.size, unique=True)
    )
    sub = g.incl(picks)
    assert [p.rank for p in sub.members()] == [a[i] for i in picks]


@given(ranks, ranks)
@settings(max_examples=100)
def test_translate_ranks_identity(a, b):
    """Translating to another group and back is the identity where the
    process exists in both groups."""
    ga, gb = to_group(a), to_group(b)
    forward = ga.translate_ranks(list(range(ga.size)), gb)
    for i, t in enumerate(forward):
        if t != UNDEFINED:
            assert gb.proc(t) == ga.proc(i)
            assert gb.translate_ranks([t], ga) == [i]


@given(ranks)
@settings(max_examples=100)
def test_strided_equals_dense_semantics(a):
    """Whatever storage Group picks, observable behavior is identical."""
    g = to_group(a)
    members = g.members()
    assert len(members) == len(a)
    for r in range(64):
        proc = PmixProc("job", r)
        if r in set(a):
            assert proc in g
        else:
            assert g.rank_of(proc) == UNDEFINED


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=4, max_value=20),
       st.integers(min_value=1, max_value=7))
@settings(max_examples=100)
def test_strided_compression_exact(start, count, stride):
    """Regular groups compress and still answer membership exactly."""
    members = [PmixProc("job", start + i * stride) for i in range(count)]
    g = Group(members)
    assert g.members().stride is not None
    assert g.members() == tuple(members)
    for i, p in enumerate(members):
        assert g.rank_of(p) == i
    assert g.rank_of(PmixProc("job", start + count * stride)) == UNDEFINED
