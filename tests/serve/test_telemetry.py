"""Live telemetry through the serving stack (docs/observability.md).

The acceptance path: one ``sim`` request with telemetry enabled yields
a wall-clock Perfetto trace whose ``serve.request`` -> ``serve.queue``
-> ``serve.run`` spans share one trace id, the run span links to the
simulated-time trace the worker exported, the Prometheus snapshot
renders, and the run ledger holds the row — all byte-deterministic
modulo timestamps, and all costing nothing when telemetry is off.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.api import SimSpec
from repro.obs import (
    LiveTelemetry,
    RunLedger,
    dumps,
    normalize_chrome_trace,
    validate_chrome_trace,
)
from repro.serve import ServeClient, ServerThread, run_simspec

pytestmark = pytest.mark.serve


def spans_named(tel, name):
    return [s for s in tel.tracer.spans.values() if s.name == name]


class TestEndToEnd:
    """One traced sim request, followed client -> server -> worker -> sim."""

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        td = tmp_path_factory.mktemp("tel")
        tel = LiveTelemetry()
        spec = SimSpec(nprocs=2)
        with ServerThread(workers=1, cache_dir=str(td / "cache"),
                          telemetry=tel, trace_dir=str(td)) as srv:
            with ServeClient(srv.address, trace="cli") as client:
                first = client.submit(
                    "sim", {"spec": spec.to_payload(),
                            "program": "allreduce", "seed": 0})
                second = client.submit(        # identical -> cache hit
                    "sim", {"spec": spec.to_payload(),
                            "program": "allreduce", "seed": 0})
                prom = client.metrics()
        return dict(dir=td, tel=tel, ledger=str(td / "ledger.sqlite"),
                    spec=spec, first=first, second=second, prom=prom)

    def test_responses_carry_the_client_minted_trace_id(self, traced):
        assert traced["first"]["status"] == "ok"
        assert traced["first"]["trace"] == "cli-1"
        assert traced["second"]["cached"] is True
        assert traced["second"]["trace"] == "cli-2"

    def test_spans_share_one_trace_id(self, traced):
        tel = traced["tel"]
        req = [s for s in spans_named(tel, "serve.request")
               if s.attrs["trace"] == "cli-1"]
        queue = [s for s in spans_named(tel, "serve.queue")
                 if s.attrs["trace"] == "cli-1"]
        run = [s for s in spans_named(tel, "serve.run")
               if s.attrs["trace"] == "cli-1"]
        assert len(req) == len(queue) == len(run) == 1
        # Topology: queue nests under request on the req track; the run
        # span lives on the worker track, joined by a dispatch flow.
        assert req[0].track == queue[0].track == "req:cli-1"
        assert queue[0].parent == req[0].sid
        assert run[0].track == "serve:worker/0"
        flows = [f for f in tel.tracer.flows.values()
                 if f.name == "serve.dispatch"
                 and f.attrs.get("trace") == "cli-1"]
        assert len(flows) == 1 and flows[0].complete
        assert flows[0].src_track == "req:cli-1"
        assert flows[0].dst_track == "serve:worker/0"
        assert req[0].attrs["status"] == "ok"

    def test_run_span_links_to_the_sim_time_trace(self, traced):
        run = [s for s in spans_named(traced["tel"], "serve.run")
               if s.attrs["trace"] == "cli-1"][0]
        sim_trace = run.attrs["sim_trace"]
        assert os.path.basename(sim_trace) == "sim-cli-1.json"
        obj = json.loads(open(sim_trace).read())
        assert validate_chrome_trace(obj) == []
        # It really is the simulated-time trace of this request: rank
        # tracks from the 2-proc world.
        threads = {e["args"]["name"] for e in obj["traceEvents"]
                   if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert any(t.startswith("rank:") for t in threads)

    def test_tracing_does_not_perturb_the_result(self, traced):
        """The served, traced result is byte-identical to a plain
        in-process run — telemetry is a pure side channel."""
        direct = run_simspec(traced["spec"], program="allreduce", seed=0)
        assert traced["first"]["result"] == direct
        assert traced["second"]["result"] == direct

    def test_cache_hit_is_visible_everywhere(self, traced):
        tel = traced["tel"]
        probes = [i for i in tel.tracer.instants
                  if i.name == "serve.cache.probe"]
        assert [p.attrs["result"] for p in probes] == ["miss", "hit"]
        hit_req = [s for s in spans_named(tel, "serve.request")
                   if s.attrs["trace"] == "cli-2"][0]
        assert hit_req.attrs["cached"] is True
        # The cache hit never reached the pool: one run span total.
        assert len(spans_named(tel, "serve.run")) == 1

    def test_prometheus_snapshot(self, traced):
        text = traced["prom"]["prometheus"]
        assert traced["prom"]["status"] == "ok"
        assert 'serve_requests{status="ok"} 2' in text
        assert 'serve_cache{result="hit"} 1' in text
        assert 'serve_cache{result="miss"} 1' in text
        assert "# TYPE serve_latency summary" in text

    def test_worker_spawn_is_counted(self, traced):
        text = traced["prom"]["prometheus"]
        assert "\nserve_worker_spawns 1\n" in text
        assert "serve_worker_deaths" not in text

    def test_ledger_rows_for_both_requests(self, traced):
        with RunLedger(traced["ledger"]) as ledger:
            rows = ledger.query(kind="serve")
        assert [r["trace"] for r in rows] == ["cli-1", "cli-2"]
        fresh, hit = rows
        assert fresh["cached"] is False and hit["cached"] is True
        assert fresh["digest"] == hit["digest"] != ""
        assert fresh["trace_path"].endswith("sim-cli-1.json")
        assert fresh["wall_s"] > 0
        # The 12-char prefix the CLI prints is queryable.
        assert ledger.query(digest=fresh["digest"][:12])

    def test_wall_trace_written_at_stop(self, traced):
        path = traced["dir"] / "serve-trace.json"
        obj = json.loads(path.read_text())
        assert validate_chrome_trace(obj) == []
        names = {e["name"] for e in obj["traceEvents"] if e.get("ph") == "X"}
        assert {"serve.request", "serve.queue", "serve.run"} <= names


class TestDeterminism:
    def run_sequence(self, td):
        """Identical two-request sequence on a fresh server; returns the
        normalized wall trace."""
        tel = LiveTelemetry()
        spec = SimSpec(nprocs=2)
        with ServerThread(workers=1, cache_dir=str(td / "cache"),
                          telemetry=tel) as srv:
            with ServeClient(srv.address, trace="cli") as client:
                for seed in (0, 0):          # second one hits the cache
                    r = client.submit("sim", {"spec": spec.to_payload(),
                                              "program": "allreduce",
                                              "seed": seed})
                    assert r["status"] == "ok"
        return dumps(normalize_chrome_trace(tel.export()))

    def test_byte_deterministic_modulo_timestamps(self, tmp_path):
        """Two identical request sequences on two fresh servers export
        byte-identical traces once wall-clock fields are normalized
        away."""
        assert (self.run_sequence(tmp_path / "a")
                == self.run_sequence(tmp_path / "b"))


class TestWorkerDeathTelemetry:
    def test_death_and_retry_are_recorded(self, tmp_path):
        tel = LiveTelemetry()
        with ServerThread(workers=1, retry_limit=2, telemetry=tel) as srv:
            with ServeClient(srv.address, trace="cli") as client:
                r = client.submit("flaky", {"state_dir": str(tmp_path),
                                            "crashes": 1, "value": 5})
                stats = client.stats()["stats"]
        assert r["status"] == "ok" and r["attempts"] == 2
        runs = spans_named(tel, "serve.run")
        assert sorted(s.attrs["attempt"] for s in runs) == [1, 2]
        outcomes = {s.attrs["attempt"]: s.attrs["outcome"] for s in runs}
        assert outcomes == {1: "worker-died", 2: "ok"}
        assert (stats["worker_deaths"], stats["retries"],
                stats["worker_spawns"]) == (1, 1, 2)


class TestServerFallbackTraceIds:
    def test_untraced_client_gets_server_minted_ids(self, tmp_path):
        tel = LiveTelemetry()
        with ServerThread(workers=1, telemetry=tel) as srv:
            with ServeClient(srv.address) as client:   # no trace=
                a = client.submit("sleep", {"seconds": 0.0})
                b = client.submit("sleep", {"seconds": 0.0})
        assert a["trace"] == "s-1" and b["trace"] == "s-2"


class TestTraceDir:
    def test_trace_dir_alone_switches_telemetry_on(self, tmp_path):
        """No telemetry object: the directory is made and holds the
        wall trace and a ledger row under the server-minted trace id."""
        trace_dir = tmp_path / "a" / "b"
        with ServerThread(workers=1, trace_dir=str(trace_dir)) as srv:
            with ServeClient(srv.address) as client:
                r = client.submit("sleep", {"seconds": 0.0})
        assert r["status"] == "ok" and r["trace"] == "s-1"
        wall = json.loads((trace_dir / "serve-trace.json").read_text())
        assert validate_chrome_trace(wall) == []
        with RunLedger(str(trace_dir / "ledger.sqlite")) as ledger:
            rows = ledger.query(kind="serve")
        assert [(row["trace"], row["scenario"]) for row in rows] \
            == [("s-1", "sleep")]


class TestTelemetryOff:
    def test_default_is_structurally_silent(self):
        """No telemetry attached -> no spans, no ledger, no trace field
        on the wire, no meta through the worker pipe."""
        with ServerThread(workers=1) as srv:
            server = srv.server
            assert server.tel is None and server.ledger is None
            with ServeClient(srv.address) as client:
                r = client.submit("sleep", {"seconds": 0.0})
        assert r["status"] == "ok"
        assert "trace" not in r

    def test_client_without_trace_sends_no_trace_field(self):
        client = ServeClient.__new__(ServeClient)    # no socket needed
        client._trace_prefix = None
        assert client._mint() is None

    def test_overhead_guard(self, tmp_path):
        """Telemetry on vs off on the same workload: the off path must
        not be slower than the on path beyond generous CI noise — i.e.
        the disabled branches are cheap.  (Structural silence above is
        the exact guarantee; this is a loose wall-clock sanity bound.)
        """
        def run(telemetry):
            trace_dir = str(tmp_path) if telemetry else None
            with ServerThread(workers=1, trace_dir=trace_dir) as srv:
                with ServeClient(srv.address) as client:
                    t0 = time.monotonic()
                    for _ in range(10):
                        assert client.submit("sleep", {"seconds": 0.0}
                                             )["status"] == "ok"
                    return time.monotonic() - t0

        t_on = run(telemetry=True)
        t_off = run(telemetry=False)
        # Loose 3x bound: catches a pathological always-on cost without
        # flaking on a noisy single-core CI box.
        assert t_off < 3.0 * t_on + 0.05
