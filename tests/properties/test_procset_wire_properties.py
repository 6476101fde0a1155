"""Property-based tests: computed-once facts against brute force.

``ProcSet`` facts and ``SizedDict`` sizes replace work that used to be
redone per rank, per server and per message; simulated time depends on
every one of them (a wire size is a transfer time, a member key is a
collective signature).  Each is checked here against the definition it
replaced, written out the slow way.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmix.types import ABORTED_MARKER, PmixProc, PmixStatus, ProcSet
from repro.pmix.wire import SizedDict, wire_size
from repro.prrte.rml import RmlMessage


# ---------------------------------------------------------------------------
# brute-force definitions
# ---------------------------------------------------------------------------
def walk(value):
    """The recursive wire-size walk, knowing nothing about SizedDict."""
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 8 + sum(walk(v) for v in value)
    if isinstance(value, dict):
        return 8 + sum(len(str(k)) + walk(v) for k, v in value.items())
    return 8


def stride_scan(members):
    if len(members) < 4:
        return None
    nspace = members[0].nspace
    if any(m.nspace != nspace for m in members):
        return None
    stride = members[1].rank - members[0].rank
    if stride <= 0:
        return None
    for i in range(1, len(members)):
        if members[i].rank - members[i - 1].rank != stride:
            return None
    return (nspace, members[0].rank, len(members), stride)


def member_key(ordered):
    return (len(ordered), ordered[0], ordered[-1], sum(p.rank for p in ordered))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
procs = st.builds(PmixProc, st.sampled_from(["job-a", "job-b"]),
                  st.integers(min_value=0, max_value=40))
regular = st.builds(
    lambda ns, start, count, step: [PmixProc(ns, start + i * step) for i in range(count)],
    st.sampled_from(["job-a", "job-b"]), st.integers(0, 9), st.integers(0, 12),
    st.integers(1, 4))
proc_lists = st.one_of(
    st.lists(procs, max_size=16),                   # repeats, several namespaces
    st.lists(procs, max_size=16, unique=True),
    regular,
    st.tuples(regular, st.lists(procs, max_size=2)).map(lambda t: t[0] + t[1]),
)

leaves = st.one_of(st.integers(), st.booleans(), st.none(), st.floats(allow_nan=False),
                   st.text(max_size=12), st.binary(max_size=12), procs)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers(0, 99)), inner,
                        max_size=4)),
    max_leaves=12)
blobs = st.dictionaries(st.text(max_size=8), values, max_size=4)
entries = st.one_of(blobs, st.just(ABORTED_MARKER), st.just(True), st.just({}))
contributions = st.dictionaries(procs, entries, max_size=6)    # may be empty


class Tag(str):
    """A ``str`` that is not exactly ``str``."""


class Label(str):
    """A ``str`` whose ``str()`` is longer than itself."""

    def __str__(self):
        return "label:" + self


def texts(size):
    return st.one_of(st.text(max_size=size), st.text(max_size=size).map(Tag),
                     st.text(max_size=size).map(Label))


# Every class a payload can hold, each container kind (sized dicts and
# proc sets included) at any depth, and keys that are not ``str``.
hashables = st.one_of(st.integers(), st.booleans(), st.none(),
                      st.floats(allow_nan=False), st.binary(max_size=8), texts(8),
                      procs, st.integers(-30, 0).map(PmixStatus))
keys = st.one_of(texts(6), st.integers(0, 99), st.booleans(), st.none(), procs)
payloads = st.recursive(
    st.one_of(hashables, st.binary(max_size=8).map(bytearray)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.sets(hashables, max_size=4), st.frozensets(hashables, max_size=4),
        st.lists(procs, max_size=5).map(ProcSet),
        st.dictionaries(keys, inner, max_size=4),
        st.dictionaries(keys, inner, max_size=4).map(SizedDict)),
    max_leaves=16)


# ---------------------------------------------------------------------------
# ProcSet
# ---------------------------------------------------------------------------
@given(proc_lists)
@settings(max_examples=300)
def test_procset_facts_match_brute_force(members):
    facts = ProcSet(members)
    assert facts == tuple(members) and len(facts) == len(members)
    assert facts.is_sorted == (list(members) == sorted(members))
    assert facts.canonical() == tuple(sorted(members))
    assert facts.canonical().canonical() is facts.canonical()
    assert facts.distinct == (len(set(members)) == len(members))
    assert facts.stride == stride_scan(members)
    if members:
        assert facts.member_key == member_key(sorted(members))
        assert facts.canonical().member_key == facts.member_key
    for probe in list(members) + [PmixProc("job-a", 41), PmixProc("job-c", 0)]:
        assert (probe in facts) == (probe in members)
        assert facts.find(probe) == (members.index(probe) if probe in members else -1)
    assert "job-a:0" not in facts and None not in facts

    def node_of(proc):
        return proc.rank // 3 + (10 if proc.nspace == "job-b" else 0)

    groups = facts.by_node(node_of)
    assert list(groups) == sorted({node_of(p) for p in members})
    for node, local in groups.items():
        assert local == tuple(p for p in members if node_of(p) == node)
    assert facts.by_node(node_of) is groups


@given(proc_lists)
def test_procset_is_shared_not_copied(members):
    facts = ProcSet(members)
    assert ProcSet(facts) is facts
    assert ProcSet(list(facts)) is not facts
    clone = pickle.loads(pickle.dumps(facts))
    assert clone == facts and clone.__class__ is ProcSet


# ---------------------------------------------------------------------------
# sized payloads
# ---------------------------------------------------------------------------
@given(st.one_of(values, payloads))
@settings(max_examples=500)
def test_wire_size_is_the_recursive_walk(value):
    assert wire_size(value) == walk(value)
    if isinstance(value, dict):
        assert SizedDict(value).nbytes == walk(value)
        assert wire_size([SizedDict(value), {"k": SizedDict(value)}]) == walk(
            [value, {"k": value}])
    wrapped = {Label("k"): value, 7: [value]}
    assert wire_size(wrapped) == walk(wrapped)


@given(st.lists(contributions, max_size=5), st.data())
@settings(max_examples=300)
def test_incremental_size_matches_walk(parts, data):
    """A grpcomm payload summed from its parts — overlapping keys (a
    marker overriding a blob, a blob overriding a marker) and empty
    contributions included — is sized exactly as a walk of the merged
    plain dict, at every level of the reduction tree, in and out of
    recovery mode."""
    plain = {}
    for part in parts:
        plain.update(part)
    sized = [SizedDict(part) for part in parts]
    combined = SizedDict.union(sized)
    assert dict(combined) == plain and list(combined) == list(plain)
    assert combined.nbytes == walk(plain)

    # Two-level reduction: children combine first, the parent sums again.
    cut = data.draw(st.integers(0, len(parts)))
    nested = SizedDict.union(
        [SizedDict.union(sized[:cut]), SizedDict.union(parts[cut:])])
    assert dict(nested) == plain and nested.nbytes == walk(plain)

    sig = ("fence", ProcSet(plain or [PmixProc("job-a", 0)]).member_key, True, 0)
    for extra in ({}, {"parts": data.draw(st.lists(st.integers(0, 63), max_size=6))}):
        up = {"sig": sig, "from_node": 3, "data": combined, **extra}
        reference = {"sig": sig, "from_node": 3, "data": plain, **extra}
        assert RmlMessage(src=3, dst=1, tag="grpcomm_up", payload=up).wire_size() \
            == 64 + walk(reference)
    down = {"sig": sig, "data": combined, "context_id": 7}
    assert RmlMessage(src=1, dst=3, tag="grpcomm_down", payload=down).wire_size() \
        == 64 + walk({"sig": sig, "data": plain, "context_id": 7})

    clone = pickle.loads(pickle.dumps(combined))        # dsim ships payloads pickled
    assert clone == combined and clone.nbytes == combined.nbytes
