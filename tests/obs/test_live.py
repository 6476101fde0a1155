"""Wall-clock telemetry: spans, flows, trace normalization."""

import json

import pytest

from repro.obs.export import dumps, validate_chrome_trace
from repro.obs.live import LiveTelemetry, normalize_chrome_trace, trace_id

pytestmark = pytest.mark.obs


class FakeClock:
    """Deterministic monotonic clock: advances on demand."""

    def __init__(self):
        self.t = 100.0          # non-zero start: now() must subtract t0

    def __call__(self):
        return self.t


def make_tel():
    clock = FakeClock()
    return LiveTelemetry(clock=clock), clock


class TestTraceId:
    def test_deterministic_format(self):
        assert trace_id("cli", 1) == "cli-1"
        assert trace_id("s", 42) == "s-42"


class TestLiveTelemetry:
    def test_now_starts_at_zero(self):
        tel, clock = make_tel()
        assert tel.now() == 0.0
        clock.t += 1.5
        assert tel.now() == pytest.approx(1.5)

    def test_span_records_wall_duration(self):
        tel, clock = make_tel()
        sid = tel.begin("req:t-1", "serve.request", scenario="sim")
        clock.t += 0.25
        tel.end(sid)
        span = tel.tracer.spans[sid]
        assert span.start == 0.0
        assert span.duration == pytest.approx(0.25)
        assert span.attrs == {"scenario": "sim"}

    def test_same_track_spans_nest(self):
        tel, clock = make_tel()
        outer = tel.begin("req:t-1", "serve.request")
        inner = tel.begin("req:t-1", "serve.queue")
        clock.t += 0.1
        tel.end(inner)
        tel.end(outer)
        assert tel.tracer.spans[inner].parent == outer

    def test_annotate_after_end(self):
        tel, clock = make_tel()
        sid = tel.begin("req:t-1", "serve.request")
        tel.end(sid)
        tel.annotate(sid, status="ok", cached=False)
        assert tel.tracer.spans[sid].attrs["status"] == "ok"

    def test_flow_stamps_both_ends_now(self):
        tel, clock = make_tel()
        clock.t += 0.5
        fid = tel.flow("serve.dispatch", "req:t-1", "serve:worker/0")
        flow = tel.tracer.flows[fid]
        assert flow.complete
        assert flow.src_time == flow.dst_time == pytest.approx(0.5)

    def test_export_is_valid_chrome_trace(self):
        tel, clock = make_tel()
        sid = tel.begin("req:t-1", "serve.request")
        clock.t += 0.1
        tel.end(sid)
        tel.event("req:t-1", "serve.cache.probe", result="miss")
        obj = tel.export()
        assert validate_chrome_trace(obj) == []

    def test_write_creates_parent_dirs(self, tmp_path):
        tel, clock = make_tel()
        sid = tel.begin("req:t-1", "serve.request")
        clock.t += 0.1
        tel.end(sid)
        path = tmp_path / "deep" / "trace.json"
        tel.write(str(path))
        assert validate_chrome_trace(json.loads(path.read_text())) == []


class TestNormalization:
    def run_sequence(self, jitter):
        """The same logical request sequence under different timing."""
        tel, clock = make_tel()
        sid = tel.begin("req:cli-1", "serve.request", trace="cli-1",
                        scenario="sim")
        qid = tel.begin("req:cli-1", "serve.queue", trace="cli-1")
        clock.t += 0.01 * jitter
        tel.end(qid)
        tel.flow("serve.dispatch", "req:cli-1", "serve:worker/0",
                 trace="cli-1")
        rid = tel.begin("serve:worker/0", "serve.run", trace="cli-1",
                        scenario="sim", attempt=1)
        clock.t += 0.05 * jitter
        tel.annotate(rid, outcome="ok")
        tel.end(rid)
        tel.annotate(sid, status="ok")
        tel.end(sid)
        return tel.export()

    def test_byte_deterministic_modulo_timestamps(self):
        """Identical request sequences with different wall timings
        serialize byte-identically after normalization — the live
        telemetry determinism contract."""
        a = normalize_chrome_trace(self.run_sequence(jitter=1))
        b = normalize_chrome_trace(self.run_sequence(jitter=7))
        assert dumps(a) == dumps(b)

    def test_normalize_zeroes_only_time_fields(self):
        obj = self.run_sequence(jitter=3)
        norm = normalize_chrome_trace(obj)
        for ev in norm["traceEvents"]:
            assert ev.get("ts", 0) == 0 and ev.get("dur", 0) == 0
        names = {e["name"] for e in norm["traceEvents"] if e.get("ph") == "X"}
        assert {"serve.request", "serve.queue", "serve.run"} <= names
        # attrs survive normalization
        run = [e for e in norm["traceEvents"] if e["name"] == "serve.run"][0]
        assert run["args"]["trace"] == "cli-1"
