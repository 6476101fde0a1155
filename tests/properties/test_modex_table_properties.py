"""One modex table per world: N servers that adopt collected fence
results *by reference* must answer exactly like N independent stores that
each copied them.

The model is the store this design replaced, kept here verbatim in what
matters: one nested ``nspace -> rank -> blob`` dict per server, merged
entry by entry.  Sequences mix local puts, direct-modex merges, fences
assembled the way the servers assemble them (each rank's home server
contributes ``rank_blob``; a dead rank contributes the aborted marker)
and arbitrary collected tables (blobs that are *not* cumulative, empty
blobs, markers, two namespaces) — so the rule that lets an older table
go is exercised where it must hold on to it.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.pmix.datastore import Datastore
from repro.pmix.types import ABORTED_MARKER, PMIX_RANK_WILDCARD, PmixProc
from repro.pmix.wire import SizedDict, wire_size

SERVERS = 3
NSPACES = ("a", "b")
RANKS = 4


class NestedStore:
    """The per-server copy-everything store (the model)."""

    def __init__(self):
        self.data = {}

    def merge_blob(self, proc, blob):
        if blob:
            by_rank = self.data.setdefault(proc.nspace, {})
            by_rank[proc.rank] = {**by_rank.get(proc.rank, {}), **blob}

    def put(self, proc, key, value):
        self.merge_blob(proc, {key: value})

    def merge_blobs(self, blobs):
        for proc, blob in blobs.items():
            if blob and isinstance(blob, dict):
                self.merge_blob(proc, blob)

    def get(self, proc, key):
        by_rank = self.data.get(proc.nspace, {})
        for rank in (proc.rank, PMIX_RANK_WILDCARD):
            if key in by_rank.get(rank, {}):
                return True, by_rank[rank][key]
        return False, None

    def rank_blob(self, proc):
        return dict(self.data.get(proc.nspace, {}).get(proc.rank, {}))

    def size_estimate(self, nspace=None):
        return sum(len(key) + wire_size(value)
                   for ns, by_rank in self.data.items() if nspace in (None, ns)
                   for blob in by_rank.values() for key, value in blob.items())


servers = st.integers(min_value=0, max_value=SERVERS - 1)
procs = st.builds(PmixProc, st.sampled_from(NSPACES),
                  st.integers(min_value=0, max_value=RANKS - 1))
keys = st.sampled_from(["ep", "x", "y"])
values = st.one_of(st.integers(), st.text(max_size=4),
                   st.dictionaries(st.sampled_from(["node", "addr"]),
                                   st.integers(), max_size=2))
blobs = st.dictionaries(keys, values, max_size=3)
entries = st.one_of(blobs, st.just(ABORTED_MARKER))


class SharedModexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.stores = [Datastore() for _ in range(SERVERS)]
        self.models = [NestedStore() for _ in range(SERVERS)]

    def both(self, server):
        return self.stores[server], self.models[server]

    @staticmethod
    def home(proc):
        return proc.rank % SERVERS

    # -- writes ---------------------------------------------------------
    @rule(server=servers, proc=procs, key=keys, value=values)
    def put(self, server, proc, key, value):
        """A local put: visible on that server only, now and after any
        number of shared tables."""
        for store in self.both(server):
            store.put(proc, key, value)

    @rule(server=servers, nspace=st.sampled_from(NSPACES), key=keys, value=values)
    def put_job(self, server, nspace, key, value):
        wildcard = PmixProc(nspace, PMIX_RANK_WILDCARD)
        for store in self.both(server):
            store.put(wildcard, key, value)

    @rule(server=servers, proc=procs, blob=blobs)
    def merge_blob(self, server, proc, blob):
        for store in self.both(server):
            store.merge_blob(proc, blob)

    @rule(members=st.lists(procs, min_size=1, max_size=6, unique=True),
          dead=st.sets(st.integers(min_value=0, max_value=5)))
    def fence_collect(self, members, dead):
        """A collected fence as the servers run it: every member's home
        server contributes all it holds for the member (a dead member:
        the marker), and every server adopts the one combined result."""
        def contributions(stores):
            return {proc: ABORTED_MARKER if i in dead
                    else stores[self.home(proc)].rank_blob(proc)
                    for i, proc in enumerate(members)}

        entries = contributions(self.stores)
        assert entries == contributions(self.models)
        self.adopt(entries)

    @rule(table=st.dictionaries(procs, entries, max_size=5))
    def merge_arbitrary_table(self, table):
        self.adopt(table)

    def adopt(self, entries):
        shared = SizedDict(entries)
        assert sorted(shared.aborted) == sorted(
            p for p, v in entries.items() if v == ABORTED_MARKER)
        for store, model in zip(self.stores, self.models):
            store.merge_blobs(shared)            # the one object, N times
            model.merge_blobs(dict(entries))
        assert shared == entries                 # adopted, never written

    @rule(nspace=st.sampled_from(NSPACES))
    def drop_namespace(self, nspace):
        cut = {}
        for store, model in zip(self.stores, self.models):
            store.drop_namespace(nspace, cut)
            model.data.pop(nspace, None)

    # -- reads ----------------------------------------------------------
    @rule(server=servers, proc=procs, key=keys)
    def get_matches(self, server, proc, key):
        store, model = self.both(server)
        assert store.get(proc, key) == model.get(proc, key)
        assert store.has(proc, key) == model.get(proc, key)[0]

    @rule(server=servers, proc=procs)
    def rank_blob_matches(self, server, proc):
        store, model = self.both(server)
        assert store.rank_blob(proc) == model.rank_blob(proc)

    @rule(server=servers, nspace=st.sampled_from((None,) + NSPACES))
    def sizes_and_namespaces_match(self, server, nspace):
        store, model = self.both(server)
        assert store.size_estimate(nspace) == model.size_estimate(nspace)
        assert set(store.namespaces()) == set(model.data)


TestSharedModexTable = SharedModexMachine.TestCase
TestSharedModexTable.settings = settings(
    max_examples=120, stateful_step_count=30, deadline=None)


def test_a_later_local_put_is_not_visible_on_a_peer_server():
    """The example the state machine generalises: two servers adopt one
    fence result; what either writes afterwards stays its own."""
    peer, proc = PmixProc("a", 1), PmixProc("a", 0)
    here, there = Datastore(), Datastore()
    here.put(proc, "ep", "old")
    shared = SizedDict({proc: here.rank_blob(proc), peer: ABORTED_MARKER})
    for store in (here, there):
        store.merge_blobs(shared)
    assert shared.aborted == (peer,)
    assert there.get(proc, "ep") == (True, "old")

    there.put(proc, "ep", "new")
    there.put(proc, "x", 1)
    assert there.rank_blob(proc) == {"ep": "new", "x": 1}
    assert here.rank_blob(proc) == {"ep": "old"}
    assert here.get(proc, "x") == (False, None)
    assert shared[proc] == {"ep": "old"}
    assert here.get(peer, "ep") == (False, None)     # a marker is no blob

    # Fencing again hands out what each home server now holds, and the
    # older table is let go on both.
    again = SizedDict({proc: there.rank_blob(proc)})
    for store in (here, there):
        store.merge_blobs(again)
        assert store._collected == [again]
    assert here.rank_blob(proc) == {"ep": "new", "x": 1}
