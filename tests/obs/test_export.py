"""Chrome trace_event export: schema validity, determinism, flamegraph."""

import json

import pytest

from repro.obs import (
    chrome_trace,
    dumps,
    flame_report,
    validate_chrome_trace,
)
from repro.obs.scenarios import run_scenario
from repro.simtime.trace import Tracer

pytestmark = pytest.mark.obs


class TestChromeTrace:
    @pytest.fixture(scope="class")
    def run(self):
        return run_scenario("fig3-init", nodes=2, ppn=2)

    def test_schema_is_valid(self, run):
        obj = chrome_trace(run.tracer)
        assert validate_chrome_trace(obj) == []

    def test_event_population(self, run):
        obj = chrome_trace(run.tracer)
        phases = {}
        for ev in obj["traceEvents"]:
            phases[ev["ph"]] = phases.get(ev["ph"], 0) + 1
        assert phases["X"] == len(run.tracer.spans)
        assert phases["s"] == len(run.tracer.flows)
        assert phases["f"] == len(run.tracer.flows)   # all complete here
        assert phases["M"] > 0

    def test_span_timestamps_are_microseconds(self, run):
        obj = chrome_trace(run.tracer)
        spans = {s.sid: s for s in run.tracer.spans.values()}
        xs = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        assert xs
        some = xs[0]
        match = [s for s in spans.values()
                 if abs(s.start * 1e6 - some["ts"]) < 1e-6
                 and s.name == some["name"]]
        assert match

    def test_dumps_is_compact_and_sorted(self, run):
        text = dumps(chrome_trace(run.tracer))
        assert ": " not in text and ", " not in text
        json.loads(text)                    # round-trips

    def test_validator_catches_garbage(self):
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "Z"}]}) != []
        bad_x = {"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "name": "n", "dur": -1}
        ]}
        assert validate_chrome_trace(bad_x) != []


class TestDeterminism:
    def test_two_identical_runs_export_identical_bytes(self):
        a = run_scenario("fig3-init", nodes=2, ppn=2)
        b = run_scenario("fig3-init", nodes=2, ppn=2)
        assert dumps(chrome_trace(a.tracer)) == dumps(chrome_trace(b.tracer))
        assert a.metrics.rows() == b.metrics.rows()
        assert a.t_end == b.t_end

    def test_dup_scenario_deterministic_too(self):
        a = run_scenario("fig4-dup", nodes=2, ppn=1)
        b = run_scenario("fig4-dup", nodes=2, ppn=1)
        assert dumps(chrome_trace(a.tracer)) == dumps(chrome_trace(b.tracer))


class TestDanglingFlows:
    def test_dropped_message_leaves_dangling_start(self):
        run = run_scenario("faults-drop", nodes=2, ppn=1)
        dangling = [f for f in run.tracer.flows.values() if not f.complete]
        assert dangling                      # the dropped grpcomm_up
        assert any(f.name == "rml.grpcomm_up" for f in dangling)
        obj = chrome_trace(run.tracer)
        assert validate_chrome_trace(obj) == []
        starts = sum(1 for e in obj["traceEvents"] if e["ph"] == "s")
        finishes = sum(1 for e in obj["traceEvents"] if e["ph"] == "f")
        assert starts == finishes + len(dangling)

    def test_fault_events_carry_flow_id(self):
        run = run_scenario("faults-drop", nodes=2, ppn=1)
        drops = [i for i in run.tracer.instants if i.name == "faults.drop_msg"]
        assert drops
        assert all(i.attrs.get("flow", 0) > 0 for i in drops)
        assert run.metrics.value("faults.drop_msg") == 1


class TestFlameReport:
    def test_children_render_under_parents(self):
        tr = Tracer()
        a = tr.begin(0.0, "t", "x.root")
        b = tr.begin(0.001, "t", "x.kid")
        tr.end(0.003, b)
        tr.end(0.004, a)
        report = flame_report(tr)
        lines = report.splitlines()
        root_idx = next(i for i, ln in enumerate(lines) if "x.root" in ln)
        kid_idx = next(i for i, ln in enumerate(lines) if "x.kid" in ln)
        assert kid_idx == root_idx + 1
        # self time of root = 4 - 2 (kid's inclusive)
        assert "2.000ms" in lines[root_idx]

    def test_scenario_report_mentions_every_layer(self):
        run = run_scenario("fig3-init", nodes=2, ppn=1)
        report = flame_report(run.tracer)
        for needle in ("ompi.session.init", "pmix.server.group",
                       "prrte.grpcomm.allgather", "simtime.proc.run"):
            assert needle in report
