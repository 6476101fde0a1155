"""Matching engine unit tests: MPI matching rules in isolation."""

import pytest

from repro.ompi.constants import ANY_SOURCE, ANY_TAG
from repro.ompi.errors import MPIErrPending
from repro.ompi.pml.matching import MatchingEngine
from repro.ompi.pml.ob1 import Packet
from repro.ompi.request import Request


def msg(src=0, tag=0, seq=0, nbytes=8, payload=None):
    """An arrived message is the packet that carried it, with the
    header's src/tag written on it (``Ob1Endpoint.deliver_user``)."""
    pkt = Packet("user", None, (0, src, tag, seq), payload=payload, nbytes=nbytes)
    pkt.src, pkt.tag = src, tag
    return pkt


def recv(src=ANY_SOURCE, tag=ANY_TAG):
    """A posted receive is the receive's request."""
    return Request("recv", src, tag)


class TestBasicMatching:
    def test_recv_then_msg(self):
        eng = MatchingEngine()
        posted = recv(src=1, tag=5)
        assert eng.post_recv(0, posted) is None
        matched = eng.incoming(0, msg(src=1, tag=5))
        assert matched is posted

    def test_msg_then_recv(self):
        eng = MatchingEngine()
        m = msg(src=1, tag=5, payload="data")
        assert eng.incoming(0, m) is None
        got = eng.post_recv(0, recv(src=1, tag=5))
        assert got is m
        assert eng.unexpected_hits == 1

    def test_wrong_tag_no_match(self):
        eng = MatchingEngine()
        eng.post_recv(0, recv(src=1, tag=5))
        assert eng.incoming(0, msg(src=1, tag=6)) is None
        assert eng.pending_posted(0) == 1
        assert eng.pending_unexpected(0) == 1

    def test_wrong_source_no_match(self):
        eng = MatchingEngine()
        eng.post_recv(0, recv(src=1, tag=5))
        assert eng.incoming(0, msg(src=2, tag=5)) is None

    def test_comms_isolated_by_cid(self):
        eng = MatchingEngine()
        eng.post_recv(1, recv(src=0, tag=0))
        assert eng.incoming(2, msg(src=0, tag=0)) is None
        assert eng.pending_posted(1) == 1


class TestWildcards:
    def test_any_source(self):
        eng = MatchingEngine()
        eng.post_recv(0, recv(src=ANY_SOURCE, tag=5))
        assert eng.incoming(0, msg(src=3, tag=5)) is not None

    def test_any_tag_matches_user_tags(self):
        eng = MatchingEngine()
        eng.post_recv(0, recv(src=1, tag=ANY_TAG))
        assert eng.incoming(0, msg(src=1, tag=123)) is not None

    def test_any_tag_never_matches_internal_tags(self):
        """Collective traffic (negative tags) is invisible to ANY_TAG."""
        eng = MatchingEngine()
        eng.post_recv(0, recv(src=1, tag=ANY_TAG))
        assert eng.incoming(0, msg(src=1, tag=-11)) is None

    def test_explicit_negative_tag_matches(self):
        eng = MatchingEngine()
        eng.post_recv(0, recv(src=1, tag=-11))
        assert eng.incoming(0, msg(src=1, tag=-11)) is not None


class TestOrdering:
    def test_unexpected_fifo(self):
        """A receive takes the EARLIEST compatible unexpected message."""
        eng = MatchingEngine()
        first = msg(src=1, tag=5, seq=0, payload="first")
        second = msg(src=1, tag=5, seq=1, payload="second")
        eng.incoming(0, first)
        eng.incoming(0, second)
        assert eng.post_recv(0, recv(src=1, tag=5)) is first
        assert eng.post_recv(0, recv(src=1, tag=5)) is second

    def test_posted_fifo(self):
        """A message matches the EARLIEST compatible posted receive."""
        eng = MatchingEngine()
        r1, r2 = recv(src=1, tag=5), recv(src=1, tag=5)
        eng.post_recv(0, r1)
        eng.post_recv(0, r2)
        assert eng.incoming(0, msg(src=1, tag=5)) is r1
        assert eng.incoming(0, msg(src=1, tag=5)) is r2

    def test_any_source_respects_arrival_order(self):
        eng = MatchingEngine()
        eng.incoming(0, msg(src=2, tag=5, payload="from2"))
        eng.incoming(0, msg(src=1, tag=5, payload="from1"))
        got = eng.post_recv(0, recv(src=ANY_SOURCE, tag=5))
        assert got.payload == "from2"

    def test_specific_recv_skips_incompatible_earlier(self):
        eng = MatchingEngine()
        eng.incoming(0, msg(src=2, tag=5))
        target = msg(src=1, tag=5)
        eng.incoming(0, target)
        assert eng.post_recv(0, recv(src=1, tag=5)) is target
        assert eng.pending_unexpected(0) == 1


class TestProbeAndCleanup:
    def test_probe_nondestructive(self):
        eng = MatchingEngine()
        eng.incoming(0, msg(src=1, tag=5))
        assert eng.probe(0, 1, 5) is not None
        assert eng.pending_unexpected(0) == 1

    def test_probe_miss(self):
        eng = MatchingEngine()
        assert eng.probe(0, 1, 5) is None

    def test_drop_empty_comm(self):
        eng = MatchingEngine()
        posted = recv(src=1, tag=5)
        eng.post_recv(0, posted)
        eng.incoming(0, msg(src=1, tag=5))
        eng.drop_comm(0)  # queues drained by the match

    def test_drop_with_pending_posted_raises(self):
        eng = MatchingEngine()
        eng.post_recv(0, recv(src=1, tag=5))
        with pytest.raises(MPIErrPending):
            eng.drop_comm(0)

    def test_drop_with_pending_unexpected_raises(self):
        eng = MatchingEngine()
        eng.incoming(0, msg(src=1, tag=5))
        with pytest.raises(MPIErrPending):
            eng.drop_comm(0)
