"""Property-based tests of the matching engine against an oracle.

The oracle replays the same interleaving of posts and arrivals with the
MPI matching rules written independently (linear scans over explicit
lists); the engine must produce the identical pairing.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ompi.constants import ANY_SOURCE, ANY_TAG
from repro.ompi.pml.matching import MatchingEngine
from tests.ompi.test_matching import msg as arrived, recv as posted_recv

# Events: ("post", src, tag) or ("msg", src, tag); small domains force
# collisions and wildcard interactions.
events = st.lists(
    st.tuples(
        st.sampled_from(["post", "msg"]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.booleans(),  # for posts: use ANY_SOURCE / ANY_TAG wildcards
    ),
    max_size=40,
)


@dataclass
class Oracle:
    posted: List = field(default_factory=list)
    unexpected: List = field(default_factory=list)

    @staticmethod
    def compatible(p, m) -> bool:
        src_ok = p["src"] == ANY_SOURCE or p["src"] == m["src"]
        if p["tag"] == ANY_TAG:
            tag_ok = m["tag"] >= 0
        else:
            tag_ok = p["tag"] == m["tag"]
        return src_ok and tag_ok

    def post(self, p) -> Optional[dict]:
        for i, m in enumerate(self.unexpected):
            if self.compatible(p, m):
                return self.unexpected.pop(i)
        self.posted.append(p)
        return None

    def msg(self, m) -> Optional[dict]:
        for i, p in enumerate(self.posted):
            if self.compatible(p, m):
                return self.posted.pop(i)
        self.unexpected.append(m)
        return None


@given(events)
@settings(max_examples=200)
def test_engine_matches_oracle(evts):
    engine = MatchingEngine()
    oracle = Oracle()
    seq = 0
    post_id = 0
    for kind, src, tag, wild in evts:
        if kind == "post":
            psrc = ANY_SOURCE if wild else src
            ptag = ANY_TAG if wild else tag
            op = {"src": psrc, "tag": ptag, "id": ("p", post_id)}
            ep = posted_recv(psrc, ptag)
            ep.payload = ("p", post_id)        # identifies the receive
            post_id += 1
            got_e = engine.post_recv(0, ep)
            got_o = oracle.post(op)
            assert (got_e is None) == (got_o is None)
            if got_e is not None:
                assert got_e.payload == got_o["id"]
        else:
            om = {"src": src, "tag": tag, "id": ("m", seq)}
            em = arrived(src, tag, seq, nbytes=0, payload=("m", seq))
            seq += 1
            got_e = engine.incoming(0, em)
            got_o = oracle.msg(om)
            assert (got_e is None) == (got_o is None)
            if got_e is not None:
                assert got_e.payload == got_o["id"]
    # Leftover queues agree too.
    assert engine.pending_posted(0) == len(oracle.posted)
    assert engine.pending_unexpected(0) == len(oracle.unexpected)


@given(events)
@settings(max_examples=100)
def test_no_message_lost_or_duplicated(evts):
    engine = MatchingEngine()
    seq = 0
    posts = msgs = matches = 0
    for kind, src, tag, wild in evts:
        if kind == "post":
            posts += 1
            if engine.post_recv(0, posted_recv(
                ANY_SOURCE if wild else src,
                ANY_TAG if wild else tag,
            )) is not None:
                matches += 1
        else:
            msgs += 1
            if engine.incoming(
                0, arrived(src, tag, seq, nbytes=0)
            ) is not None:
                matches += 1
            seq += 1
    assert matches + engine.pending_posted(0) == posts
    assert matches + engine.pending_unexpected(0) == msgs
