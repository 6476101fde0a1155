"""Unit tests for the span/flow model in :mod:`repro.simtime.trace`."""

import pytest

from repro.simtime.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    track_for_daemon,
    track_for_proc,
)

pytestmark = pytest.mark.obs


class TestSpanNesting:
    def test_parent_is_innermost_open_span_on_track(self):
        tr = Tracer()
        a = tr.begin(0.0, "t", "x.outer")
        b = tr.begin(1.0, "t", "x.inner")
        c = tr.begin(2.0, "other", "x.elsewhere")
        assert tr.spans[a].parent == 0
        assert tr.spans[b].parent == a
        assert tr.spans[c].parent == 0     # stacks are per-track

    def test_end_closes_and_pops(self):
        tr = Tracer()
        a = tr.begin(0.0, "t", "x.a")
        b = tr.begin(1.0, "t", "x.b")
        tr.end(2.0, b)
        assert tr.spans[b].end == 2.0
        assert tr.spans[b].duration == 1.0
        c = tr.begin(3.0, "t", "x.c")
        assert tr.spans[c].parent == a     # b no longer on the stack
        tr.end(4.0, c)
        tr.end(5.0, a)

    def test_out_of_order_end_removes_from_mid_stack(self):
        tr = Tracer()
        a = tr.begin(0.0, "t", "x.a")
        b = tr.begin(1.0, "t", "x.b")
        tr.end(2.0, a)                     # close the OUTER first
        assert tr.spans[a].end == 2.0
        c = tr.begin(3.0, "t", "x.c")
        assert tr.spans[c].parent == b     # b is still open and innermost

    def test_end_tolerates_zero_and_double_close(self):
        tr = Tracer()
        tr.end(1.0, 0)                     # never raises
        a = tr.begin(0.0, "t", "x.a")
        tr.end(1.0, a)
        tr.end(9.0, a)                     # double close keeps first end
        assert tr.spans[a].end == 1.0

    def test_span_tree_shape(self):
        tr = Tracer()
        a = tr.begin(0.0, "t", "x.root")
        b = tr.begin(1.0, "t", "x.kid1")
        tr.end(2.0, b)
        c = tr.begin(3.0, "t", "x.kid2")
        tr.end(4.0, c)
        tr.end(5.0, a)
        assert tr.span_tree(a) == ("x.root", [("x.kid1", []), ("x.kid2", [])])


class TestFlows:
    def test_flow_begin_end_binds_once(self):
        tr = Tracer()
        fid = tr.flow_begin(0.0, "src", "rml.tag", nbytes=10)
        assert not tr.flows[fid].complete
        tr.flow_end(1.0, "dst", fid)
        tr.flow_end(2.0, "dst2", fid)      # duplicate copy: first arrival wins
        f = tr.flows[fid]
        assert f.complete and f.dst_track == "dst" and f.dst_time == 1.0

    def test_flow_records_span_context(self):
        tr = Tracer()
        s_src = tr.begin(0.0, "src", "x.sender")
        fid = tr.flow_begin(0.5, "src", "x.msg")
        s_dst = tr.begin(1.0, "dst", "x.receiver")
        tr.flow_end(1.5, "dst", fid)
        assert tr.flows[fid].src_span == s_src
        assert tr.flows[fid].dst_span == s_dst

    def test_one_shot_flow(self):
        tr = Tracer()
        fid = tr.flow("pmix.release", "daemon:0", 1.0, "rank:j/0", 2.0)
        assert tr.flows[fid].complete
        assert tr.flows[fid].src_time == 1.0 and tr.flows[fid].dst_time == 2.0


class TestDisabled:
    def test_disabled_tracer_records_nothing(self):
        tr = Tracer()
        tr.enabled = False
        assert tr.begin(0.0, "t", "x.a") == 0
        assert tr.flow_begin(0.0, "t", "x.f") == 0
        tr.event(0.0, "t", "x.e")
        assert not tr.spans and not tr.flows and not tr.instants

    def test_null_tracer_cannot_be_enabled(self):
        nt = NullTracer()
        nt.enabled = True
        assert nt.enabled is False
        assert nt.begin(0.0, "t", "x.a") == 0
        assert NULL_TRACER.enabled is False


class TestTrackNames:
    def test_track_helpers(self):
        class P:
            nspace, rank = "job-1", 3

        assert track_for_proc(P) == "rank:job-1/3"
        assert track_for_daemon(2) == "daemon:2"
