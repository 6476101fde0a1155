"""The serving layer (repro.serve): admission, backpressure, deadlines,
retry, caching, and the determinism contract against serial sweeps.

Scales are deliberately tiny (single-digit workers/requests) — the CI
box may have one core, and the ``sleep``/``flaky`` scenarios exercise
the concurrency machinery without burning CPU.
"""

from __future__ import annotations

import gc
import threading
import time

import pytest

from repro.api import SimSpec
from repro.ompi.config import MpiConfig
from repro.serve import (
    ServeClient,
    ServerThread,
    protocol,
    run_simspec,
    scenario,
    scenario_names,
)
from repro.serve.loadgen import (
    backpressure_probe,
    determinism_check,
    run_loadgen,
    sim_workload,
)
from tests._pipeline import pipelined, submit

pytestmark = pytest.mark.serve


# ---------------------------------------------------------------------------
# protocol + registry
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_round_trip(self):
        msg = {"op": "submit", "scenario": "sim", "params": {"seed": 1}}
        assert protocol.decode(protocol.encode(msg)) == msg

    def test_encode_is_canonical_one_line(self):
        data = protocol.encode({"b": 1, "a": 2})
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert data.index(b'"a"') < data.index(b'"b"')

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"{not json}\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b'"a bare string"\n')


class TestRegistry:
    def test_builtins_registered(self):
        for name in ("sim", "recovery-soak", "figure", "sleep", "flaky"):
            assert name in scenario_names()
            assert callable(scenario(name))

    def test_figure_scenario_runs_one_figure(self):
        from repro.bench.figures import run_point

        assert scenario("figure")(figure="table1") == run_point("table1")

    def test_unknown_scenario_suggests(self):
        with pytest.raises(KeyError, match="sim"):
            scenario("simm")

    def test_run_simspec_is_deterministic(self):
        spec = SimSpec(nprocs=4)
        a = run_simspec(spec, program="allreduce", seed=3)
        b = run_simspec(spec.to_payload(), program="allreduce", seed=3)
        assert a == b
        assert len(a["digest"]) == 64
        # A different seed is a different result.
        assert run_simspec(spec, seed=4)["digest"] != a["digest"]

    def test_run_simspec_sessions_program(self):
        # comm_create_from_group needs the exCID generator (sessions config).
        spec = SimSpec(nprocs=2, config=MpiConfig.sessions_prototype())
        out = run_simspec(spec, program="sessions", seed=1)
        assert out["results"] == [3, 3]     # (0+1) + (1+1) on both ranks

    def test_run_simspec_unknown_program(self):
        with pytest.raises(KeyError, match="unknown program"):
            run_simspec(SimSpec(nprocs=2), program="nope")


# ---------------------------------------------------------------------------
# tier-1 smoke: in-process server, 8 requests, well under 10 s
# ---------------------------------------------------------------------------
def test_serve_smoke(tmp_path):
    t0 = time.monotonic()
    workload = sim_workload(8, seed=0, nprocs=2)
    with ServerThread(workers=2, capacity=8,
                      cache_dir=str(tmp_path)) as srv:
        report = run_loadgen(srv.address, workload, clients=2)
        with ServeClient(srv.address) as client:
            health = client.health()
            stats = client.stats()["stats"]
    assert report["by_status"] == {"ok": 8}
    assert report["client_errors"] == []
    assert report["throughput_rps"] > 0
    assert health["status"] == "ok" and health["workers"] == 2
    assert stats["ok"] >= 8 and stats["errors"] == 0
    # sim_workload repeats every 4th request -> the cache must have hit.
    assert stats["cache"]["hits"] >= 1
    assert 0 < stats["cache"]["hit_rate"] < 1
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# admission order, backpressure, deadlines
# ---------------------------------------------------------------------------
def test_fifo_admission_single_worker():
    """One worker, pipelined submits: completions follow admission order."""
    with ServerThread(workers=1, capacity=8) as srv:
        replies = pipelined(srv.address, [
            submit("sleep", {"seconds": 0.01, "tag": i}) for i in range(5)])
    assert all(r["status"] == "ok" for r in replies)
    assert [r["result"]["tag"] for r in replies] == [0, 1, 2, 3, 4]


def test_backpressure_rejects_at_full_queue():
    probe = backpressure_probe(capacity=2, oversubscription=4, hold_s=0.2)
    assert probe["burst"] == 8
    assert probe["rejections_observed"], probe
    assert probe["bounded"], probe
    assert probe["max_queue_depth"] <= 2
    # Everything admitted eventually completed; nothing was lost.
    assert probe["ok"] + probe["rejected"] == probe["burst"]


def test_deadline_expires_queued_request():
    """The blocker holds the only worker past the deadline of the submit
    queued behind it; the one after that runs."""
    with ServerThread(workers=1, capacity=8) as srv:
        replies = pipelined(srv.address, [
            submit("sleep", {"seconds": 0.3}),
            submit("sleep", {"seconds": 0.01, "tag": "doomed"},
                   deadline_s=0.05),
            # Another key: a twin of the doomed submit would coalesce
            # onto it and share its expiry.
            submit("sleep", {"seconds": 0.01, "tag": "after"})])
        expired = srv.server.stats.expired
    blocker, doomed, ok_after = sorted(replies, key=lambda r: r["id"])
    assert blocker["status"] == "ok"
    assert doomed["status"] == "expired"
    assert "queued" in doomed["reason"]
    assert ok_after["status"] == "ok"       # server healthy after expiry
    assert expired == 1


def test_deadline_expires_mid_run():
    with ServerThread(workers=1, capacity=4) as srv:
        with ServeClient(srv.address) as client:
            doomed = client.submit("sleep", {"seconds": 5.0}, deadline_s=0.1)
            ok_after = client.submit("sleep", {"seconds": 0.01})
            stats = client.stats()["stats"]
    assert doomed["status"] == "expired"
    assert "mid-run" in doomed["reason"]
    assert ok_after["status"] == "ok"       # a fresh worker took over
    assert stats["worker_spawns"] >= 2


@pytest.mark.parametrize("bad", ["soon", True, [1], float("inf")])
def test_malformed_deadline_is_refused_at_admission(bad):
    """``deadline_s`` comes off the wire: a non-number must be answered
    ``error`` at admission, not reach the deadline arithmetic of the
    (only) worker loop and kill it."""
    with ServerThread(workers=1, capacity=4) as srv:
        with ServeClient(srv.address, timeout=20.0) as client:
            refused = client.submit("sleep", {"seconds": 0.01},
                                    deadline_s=bad)
            ok_after = client.submit("sleep", {"seconds": 0.01},
                                     deadline_s=5)
            stats = client.stats()["stats"]
            metrics = client.metrics()["prometheus"]
    assert refused["status"] == "error"
    assert refused["error"] == "deadline_s must be a number"
    assert ok_after["status"] == "ok"       # the worker loop survived
    assert (stats["errors"], stats["ok"]) == (1, 1)
    assert 'serve_requests{status="error"} 1' in metrics


@pytest.mark.parametrize("tag_bytes", [100_000, 8_000_000])
def test_oversize_request_line_is_refused_not_dropped(tag_bytes, caplog):
    """A line over the endpoint's read limit is answered ``error`` — not
    dropped with an unhandled exception for the client to resubmit into
    — and the server keeps serving.  8 MB outgrows the socket buffers:
    unless the server reads the rest of the line before it hangs up, the
    client's send is reset and the refusal is lost."""
    with ServerThread(workers=1, capacity=4) as srv:
        with ServeClient(srv.address, timeout=20.0) as client:
            refused = client.submit("sleep", {"seconds": 0.0,
                                              "tag": "x" * tag_bytes})
            resubmits = client.resubmits
        with ServeClient(srv.address, timeout=20.0) as client:
            ok_after = client.submit("sleep", {"seconds": 0.01})
    assert refused == {"status": "error", "error":
                       f"request line exceeds {protocol.MAX_LINE} bytes"}
    assert resubmits == 0
    assert ok_after["status"] == "ok"
    assert "Unhandled exception" not in caplog.text


def _stop_with_work_in_flight(stop, host=None):
    """One worker; one ``sleep`` running and one queued; then ``stop``
    the server 0.3 s in.  Returns (seconds the stop took, the replies)."""
    replies = {}

    def submit(address, name):
        with ServeClient(address, timeout=20.0, retries=0) as client:
            replies[name] = client.submit("sleep", {"seconds": 30.0,
                                                    "tag": name})

    srv = host or ServerThread(workers=1, capacity=4)
    srv.__enter__()
    threads = [threading.Thread(target=submit, args=(srv.address, name),
                                daemon=True)
               for name in ("running", "queued")]
    try:
        for thread in threads:
            thread.start()
            time.sleep(0.15)            # the first reaches the worker
        t0 = time.monotonic()
        stop(srv)
    finally:
        srv.__exit__(None, None, None)
    took = time.monotonic() - t0
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    return took, replies


@pytest.mark.parametrize("how", ["exit", "shutdown-op"])
def test_stop_answers_running_and_queued_requests(how, caplog):
    """stop() resolves every admitted request before it reaps the
    connection handlers that are waiting to write those replies — or it
    waits on itself for the full 30 s host timeout."""
    def stop(srv):
        if how == "shutdown-op":
            with ServeClient(srv.address, timeout=20.0) as admin:
                assert admin.shutdown()["stopping"] is True

    took, replies = _stop_with_work_in_flight(stop)
    assert took < 5.0
    assert set(replies) == {"running", "queued"}
    for name, reply in replies.items():
        assert reply["status"] == "error", (name, reply)
        assert reply["error"] == "server stopped", (name, reply)
    gc.collect()        # "Task was destroyed but it is pending" logs here
    assert "destroyed" not in caplog.text


def test_server_thread_boot_failure_raises_immediately():
    """A broken server config must surface its real exception from
    __enter__, not hang out the 30s startup timeout."""
    t0 = time.monotonic()
    with pytest.raises(TypeError, match="no_such_option"):
        ServerThread(workers=1, no_such_option=True).__enter__()
    assert time.monotonic() - t0 < 15.0


# ---------------------------------------------------------------------------
# worker death + retry
# ---------------------------------------------------------------------------
def test_worker_death_is_retried(tmp_path):
    with ServerThread(workers=1, capacity=4, retry_limit=2) as srv:
        with ServeClient(srv.address) as client:
            response = client.submit("flaky", {
                "state_dir": str(tmp_path), "key": "once",
                "crashes": 1, "value": 99})
            stats = client.stats()["stats"]
    assert response["status"] == "ok"
    assert response["result"] == {"attempts": 2, "value": 99}
    assert response["attempts"] == 2        # one death, one successful retry
    assert stats["worker_deaths"] == 1
    assert stats["retries"] == 1


def test_retry_budget_exhausts(tmp_path):
    with ServerThread(workers=1, capacity=4, retry_limit=1) as srv:
        with ServeClient(srv.address) as client:
            response = client.submit("flaky", {
                "state_dir": str(tmp_path), "key": "always", "crashes": 99})
            ok_after = client.submit("sleep", {"seconds": 0.01})
    assert response["status"] == "error"
    assert "retry budget" in response["error"]
    assert ok_after["status"] == "ok"       # pool recovered regardless


# ---------------------------------------------------------------------------
# caching + determinism
# ---------------------------------------------------------------------------
def test_cache_serves_repeats_without_recompute(tmp_path):
    params = {"spec": SimSpec(nprocs=2).to_payload(), "seed": 5}
    with ServerThread(workers=1, capacity=4,
                      cache_dir=str(tmp_path)) as srv:
        with ServeClient(srv.address) as client:
            first = client.submit("sim", params)
            second = client.submit("sim", params)
            stats = client.stats()["stats"]
    assert first["status"] == second["status"] == "ok"
    assert first["cached"] is False and second["cached"] is True
    assert first["result"] == second["result"]
    assert stats["cache"] == {"hits": 1, "misses": 1, "hit_rate": 0.5}


def test_concurrent_serve_matches_serial_sweep():
    """The acceptance contract: same seeds through the concurrent server
    and through a serial ``repro.sweep`` run -> byte-identical results."""
    det = determinism_check([0, 1], workers=2, clients=2,
                            num_nodes=2, num_ranks=4)
    assert det["serve_matches_serial_sweep"], det
    assert det["mismatched_seeds"] == [] and det["errors"] == []
    assert len(det["digests"]) == 2


# ---------------------------------------------------------------------------
# ops: resize, drain, errors on the wire
# ---------------------------------------------------------------------------
def test_resize_and_health():
    with ServerThread(workers=1, capacity=4) as srv:
        with ServeClient(srv.address) as client:
            assert client.resize(3) == {"status": "ok", "workers": 3,
                                        "id": 1}
            health = client.health()
            assert health["workers"] == 3
            assert client.submit("sleep", {"seconds": 0.01})["status"] == "ok"


def test_drain_then_reject():
    with ServerThread(workers=1, capacity=4) as srv:
        with ServeClient(srv.address) as client:
            assert client.submit("sleep", {"seconds": 0.01})["status"] == "ok"
            assert client.drain()["drained"] is True
            after = client.submit("sleep", {"seconds": 0.01})
    assert after["status"] == "rejected"
    assert after["reason"] == "draining"


def test_wire_errors():
    with ServerThread(workers=1, capacity=4) as srv:
        with ServeClient(srv.address) as client:
            unknown = client.submit("no-such-scenario")
            assert unknown["status"] == "error"
            assert "unknown scenario" in unknown["error"]
            bad_op = client._rpc({"op": "frobnicate"})
            assert bad_op["status"] == "error"
            assert "unknown op" in bad_op["error"]


def test_bad_sim_specs_are_answered_with_an_error_not_a_run():
    """JSON decodes ``NaN``/``Infinity``; a spec naming a removed field
    is an unknown one."""
    spec = {"nprocs": 8, "ppn": 2, "machine": {"num_nodes": 4}}
    bad = [
        (dict(spec, machine={"num_nodes": 4, "session_subsys_init": float("nan")}),
         "MachineModel.session_subsys_init must be a finite number"),
        (dict(spec, machine={"num_nodes": 4, "inter_node_latency": float("inf")}),
         "MachineModel.inter_node_latency must be a finite number"),
        (dict(spec, engine_compat=True),
         "unknown SimSpec payload field(s): ['engine_compat']"),
    ]
    with ServerThread(workers=1, capacity=4) as srv:
        with ServeClient(srv.address) as client:
            replies = [client.submit("sim", {"spec": s}) for s, _ in bad]
            good = client.submit("sim", {"spec": spec})
    for (_, expected), reply in zip(bad, replies):
        assert reply["status"] == "error" and expected in reply["error"], reply
    assert good["status"] == "ok"
