"""Deterministic cost gates: the work per cache-hit ``submit``.

The benchmark's ``serve-hot`` row times a 0.1–0.15 ms request whose
run-to-run spread swamps most changes to the serve code, so its cost is
gated here by numbers that repeat exactly.  The server's half is driven
in-process through one connection's ``data_received`` (the endpoint's
``asyncio.Protocol``), one line per call as a closed-loop client sends
them: a stub transport, a pre-filled ``ResultStore``, no socket, no
thread, no worker pool, and every request hits (answered in place, no
task).  Twin of ``tests/ompi/test_message_path_cost.py``.

* Python-level calls made inside ``src/repro`` (``tests/_callcount.py``):
  14 per hit on the server (``data_received``, ``decode``,
  ``_dispatch``, ``check_version``, ``_op_submit``, ``cache_key``,
  ``source_digest``, ``ResultStore.get``, ``observe`` + the histogram's
  own, ``_key``, ``_finish``, ``_reply``, ``encode``): the counters are
  ``ServeStats`` fields, which the registry reads only when queried.
  The scenario check is a dict lookup; the sorted names are built only
  for the error text of an unknown one.  7 per ``ServeClient.submit``
  on the client (``submit``, ``_mint``, ``_rpc``, ``_exchange``,
  ``encode``, ``_readline``, ``decode``).
* Bytes through ``json`` for a stock ``serve-hot`` ``sim`` hit (request
  decode + ``cache_key`` blob + reply encode), counted through
  ``json.loads`` and the shared encoder ``repro.sweep.CANONICAL``.  That
  work is C-level, so the call count cannot see it.  µs per stock
  ``sim`` hit, client and server threads pinned to one CPU of a 2-vCPU
  x86-64 VM (Intel Xeon, shared host; each part: best of 5 x 20k
  calls; p50 of 6 000 hits through ``ServerThread`` + ``ServeClient``;
  median of 6 alternating runs of each column):

  ============================  ==================  ==================
  how a line is read and        ``StreamReader``    one ``Protocol``,
  answered                      task, ``dumps``     shared encoder
  ============================  ==================  ==================
  client encode                 10.5                9.7
  server decode                 7.2                 7.2
  ``cache_key`` (json+sha256)   12.5                10.2
  reply codec (both ends)       20.2                17.4
  rest (sockets, threads, loop) 108.8               67.8
  p50 per hit                   157.2               111.4
  JSON bytes per hit (this      924                 924
  test)
  ============================  ==================  ==================
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import SimSpec
from repro.machine.presets import jupiter
from repro.obs import LiveTelemetry
from repro.ompi.config import MpiConfig
from repro.serve import (ResultStore, ServeClient, ServerThread, SimServer,
                         protocol, run_simspec)
from repro.serve.endpoint import HISTOGRAM_MAX_SAMPLES, _Connection
from repro.sweep import CANONICAL, cache_key
from tests._callcount import counting_calls

pytestmark = pytest.mark.serve

#: What a hit makes, with no slack: the list in the module docstring.
MAX_CALLS_PER_HIT = 14

#: What a hit makes on the client side: submit, _mint, _rpc, _exchange,
#: encode, _readline, decode.
MAX_CLIENT_CALLS_PER_HIT = 7

#: A stock ``sim`` hit moved 2 798 bytes through json when a payload
#: carried every field; 924 with only the non-default ones.
MAX_JSON_BYTES_PER_HIT = 1000

KEYS = 8


class _Transport:
    """The transport method a line answered in place uses; keeps the
    lines written."""

    def __init__(self) -> None:
        self.lines = []

    def write(self, data: bytes) -> None:
        self.lines.append(data)


def _params(key: int) -> dict:
    return {"seconds": 0.0, "tag": key}


def _submit_line(rid: int, key: int) -> bytes:
    return protocol.encode({"op": "submit", "id": rid, "v": protocol.VERSION,
                            "scenario": "sleep", "params": _params(key)})


def _connection(server: SimServer) -> _Connection:
    conn = _Connection(server)
    conn.connection_made(_Transport())
    return conn


def _serve(conn: _Connection, lines) -> list:
    """Feed ``lines`` to ``conn``, each as it would arrive from a
    closed-loop client (one ``data_received`` per line) and each
    answered in place; the reply lines, undecoded (the caller's decode
    must not land in the tally)."""
    written = conn.transport.lines
    first = len(written)

    async def go():
        for line in lines:
            conn.data_received(line)
        assert not conn.pending

    asyncio.run(go())
    return written[first:]


def test_calls_per_cache_hit_submit():
    store = ResultStore()
    for key in range(KEYS):
        store.put(cache_key("sleep", _params(key)), {"slept": 0.0, "tag": key})
    server = SimServer(workers=1, store=store)
    conn = _connection(server)
    _serve(conn, [_submit_line(0, 0)])          # first-use costs stay out

    requests = 200
    lines = [_submit_line(rid, rid % KEYS) for rid in range(1, requests + 1)]
    with counting_calls() as tally:
        raw = _serve(conn, lines)
    replies = [protocol.decode(data) for data in raw]

    assert [r["id"] for r in replies] == list(range(1, requests + 1))
    assert all(r["status"] == "ok" and r["cached"] is True for r in replies)
    assert server.stats.cache_hits == requests + 1
    per_hit = tally.total / requests
    assert per_hit <= MAX_CALLS_PER_HIT, (
        f"{per_hit:.1f} Python calls inside src/repro per cache-hit submit "
        f"(limit {MAX_CALLS_PER_HIT}); calls per submit by function:\n"
        f"{tally.top(25, per=requests)}"
    )


def _reference_summary(samples: list) -> dict:
    """A histogram summary as an unbounded registry took it: every
    sample kept, one sort per percentile."""
    def percentile(p):
        ordered = sorted(samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] * (1.0 - (rank - lo)) + ordered[hi] * (rank - lo)

    return {"count": len(samples), "min": min(samples), "max": max(samples),
            "mean": sum(samples) / len(samples), "p50": percentile(50),
            "p90": percentile(90), "p99": percentile(99)}


def test_latency_histograms_stay_within_their_cap():
    """A long-lived server's histograms keep at most HISTOGRAM_MAX_SAMPLES
    samples each (they kept every one, 41 B per answered request), while
    count/total stay exact and a summary over at most the cap is the
    exact one."""
    store = ResultStore()
    for key in range(KEYS):
        store.put(cache_key("sleep", _params(key)), {"slept": 0.0, "tag": key})
    server = SimServer(workers=1, store=store)
    conn = _connection(server)
    hits = 20_000
    lines = [_submit_line(rid, rid % KEYS) for rid in range(hits)]
    _serve(conn, lines[:HISTOGRAM_MAX_SAMPLES])
    latency = server.metrics.histogram("serve.latency")
    assert latency.summary() == _reference_summary(list(latency.values))

    _serve(conn, lines[HISTOGRAM_MAX_SAMPLES:])
    assert server.stats.cache_hits == hits
    assert all(len(h.values) <= HISTOGRAM_MAX_SAMPLES
               for h in server.metrics.histograms.values())
    assert latency.count == hits and len(latency.values) == HISTOGRAM_MAX_SAMPLES


def _sim_params(seed: int) -> dict:
    """A ``serve-hot`` request's params (jupiter 2x8, sessions)."""
    spec = SimSpec(nprocs=16, machine=jupiter(2), ppn=8,
                   config=MpiConfig.sessions_prototype())
    return {"spec": spec.to_payload(), "program": "sessions", "seed": seed}


def test_json_bytes_per_stock_sim_hit(monkeypatch):
    store = ResultStore()
    params = [_sim_params(seed) for seed in range(2)]
    for p in params:
        store.put(cache_key("sim", p), run_simspec(**p))
    conn = _connection(SimServer(workers=1, store=store))
    requests = 100
    lines = [protocol.encode({"op": "submit", "id": rid, "v": protocol.VERSION,
                              "scenario": "sim", "params": params[rid % 2]})
             for rid in range(requests + 1)]
    _serve(conn, lines[:1])                     # first-use costs stay out

    moved = []
    loads, encode = json.loads, CANONICAL.encode

    def counting_loads(s, *args, **kw):
        moved.append(len(s))
        return loads(s, *args, **kw)

    def counting_encode(obj):
        out = encode(obj)
        moved.append(len(out))
        return out

    monkeypatch.setattr(json, "loads", counting_loads)
    monkeypatch.setattr(CANONICAL, "encode", counting_encode)
    raw = _serve(conn, lines[1:])
    monkeypatch.undo()

    replies = [protocol.decode(data) for data in raw]
    assert all(r["status"] == "ok" and r["cached"] is True for r in replies)
    assert len(moved) == 3 * requests           # decode, key blob, reply
    per_hit = sum(moved) / requests
    assert per_hit <= MAX_JSON_BYTES_PER_HIT, (
        f"{per_hit:.0f} bytes through json per stock sim hit "
        f"(limit {MAX_JSON_BYTES_PER_HIT}); request line "
        f"{len(lines[1])} B")


def _stats_and_metrics(server: SimServer) -> tuple:
    """What the ``stats`` and ``metrics`` ops answer (inside a loop)."""
    return (server._dispatch({"op": "stats"})["stats"],
            server._dispatch({"op": "metrics"})["prometheus"])


def test_malformed_submits_count_once_and_leave_no_open_span():
    """Every shape ``_bad_request`` refuses: each is one error in the
    ``stats`` op and in the ``metrics`` op's
    ``serve_requests{status="error"}``, and none leaves its
    ``serve.request`` span open."""
    tel = LiveTelemetry()
    server = SimServer(workers=1, store=ResultStore(), telemetry=tel)
    submit = {"op": "submit", "scenario": "sleep"}
    malformed = [
        ("unknown scenario", dict(submit, scenario="no-such-scenario")),
        # A JSON array or object is unhashable: no registry lookup raises.
        ("unknown scenario", dict(submit, scenario=["sleep"])),
        ("unknown scenario", {"op": "submit"}),
        ("params must be a JSON object", dict(submit, params=[1, 2])),
        # Falsy non-objects are not a missing ``params``.
        ("params must be a JSON object", dict(submit, params=[])),
        ("params must be a JSON object", dict(submit, params=0)),
        ("params must be a JSON object", dict(submit, params="")),
        ("params must be a JSON object", dict(submit, params=False)),
        # Cannot arrive as JSON; an in-process dispatch can carry it.
        ("params not cacheable", dict(submit, params={"tag": object()})),
        ("deadline_s must be a number", dict(submit, deadline_s="soon")),
    ]

    async def go():
        # Every refusal is answered at once: no worker loop runs.
        replies = [server._dispatch(msg) for _, msg in malformed]
        return replies, _stats_and_metrics(server)

    replies, (stats, metrics) = asyncio.run(go())
    for (expected, _), reply in zip(malformed, replies):
        assert reply["status"] == "error" and expected in reply["error"]
    assert stats["submitted"] == stats["errors"] == len(malformed)
    assert f'\nserve_requests{{status="error"}} {len(malformed)}\n' in metrics
    spans = [ev for ev in tel.export()["traceEvents"] if ev["ph"] == "X"]
    assert [ev["args"]["status"] for ev in spans] == ["error"]
    assert not any(ev["args"].get("open") for ev in spans)


def test_version_mismatch_counts_once_in_stats_and_metrics():
    """A request with another protocol version is one error in the
    ``stats`` op as in the ``metrics`` op: one record, read by both."""
    server = SimServer(workers=1, store=ResultStore())

    async def go():
        reply = server._dispatch({"op": "health", "id": 1, "v": 99})
        return reply, _stats_and_metrics(server)

    reply, (stats, metrics) = asyncio.run(go())
    assert reply["status"] == "error" and reply["client_v"] == 99
    assert (stats["errors"], stats["submitted"]) == (1, 0)
    assert '\nserve_requests{status="error"} 1\n' in metrics


def test_client_calls_per_cache_hit_submit():
    """The client's half of a hit: the Python calls one
    ``ServeClient.submit`` makes inside ``src/repro`` (the server runs
    in its own thread, which the profile hook does not see)."""
    store = ResultStore()
    for key in range(KEYS):
        store.put(cache_key("sleep", _params(key)), {"slept": 0.0, "tag": key})
    requests = 200
    with ServerThread(workers=1, store=store) as srv:
        with ServeClient(srv.address) as client:
            client.submit("sleep", _params(0))  # first-use costs stay out
            with counting_calls() as tally:
                replies = [client.submit("sleep", _params(rid % KEYS))
                           for rid in range(requests)]
    assert all(r["status"] == "ok" and r["cached"] is True for r in replies)
    per_hit = tally.total / requests
    assert per_hit <= MAX_CLIENT_CALLS_PER_HIT, (
        f"{per_hit:.1f} Python calls inside src/repro per client submit "
        f"(limit {MAX_CLIENT_CALLS_PER_HIT}); calls per submit by "
        f"function:\n{tally.top(25, per=requests)}"
    )
