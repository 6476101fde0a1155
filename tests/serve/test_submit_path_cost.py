"""Deterministic cost gates: the work per cache-hit ``submit``.

The benchmark's ``serve-hot`` row times a 0.1–0.15 ms request whose
run-to-run spread swamps most changes to the serve code, so its cost is
gated here by two numbers that repeat exactly, with
``Endpoint._serve_line`` — what the read loop calls per line — driven
in-process: a stub writer, a pre-filled ``ResultStore``, no socket, no
thread, no worker pool, and every request hits (answered in place, no
task).  Twin of ``tests/ompi/test_message_path_cost.py``.

* Python-level calls made inside ``src/repro`` (``tests/_callcount.py``):
  19 per hit (``_serve_line``, ``decode``, ``_dispatch``,
  ``check_version``, ``_op_submit``, ``scenario_names``, ``cache_key``,
  ``source_digest``, ``ResultStore.get``, 2 x ``inc``, ``observe`` +
  the histogram's own, 3 x ``_key``, ``_finish``, ``_reply``,
  ``encode``).
* Bytes through ``json`` for a stock ``serve-hot`` ``sim`` hit (request
  decode + ``cache_key`` blob + reply encode).  That work is C-level, so
  the call count cannot see it, and it was half of a hit.  µs per stock
  ``sim`` hit, client and server threads pinned to one CPU of a 2-vCPU
  x86-64 VM (each part: best of 5 x 20k calls; p50 of 6 000 hits through
  ``ServerThread`` + ``ServeClient``; median of 6 runs):

  ============================  ===============  ==================
  payload / where a hit is      every field /    non-default only /
  answered                      task per line    read loop
  ============================  ===============  ==================
  client encode                 24.3             8.2
  server decode                 13.7             5.3
  ``cache_key`` (dumps+sha256)  25.8             9.0
  reply codec (both ends)       15.0             14.9
  rest (sockets, threads, loop) 90.0             70.0
  p50 per hit                   168.4            107.3
  JSON bytes per hit (this      2 798            924
  test)
  ============================  ===============  ==================
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import SimSpec
from repro.machine.presets import jupiter
from repro.obs import LiveTelemetry
from repro.ompi.config import MpiConfig
from repro.serve import ResultStore, SimServer, protocol, run_simspec
from repro.serve.endpoint import HISTOGRAM_MAX_SAMPLES
from repro.sweep import cache_key
from tests._callcount import counting_calls

pytestmark = pytest.mark.serve

#: What a hit makes, with no slack: the list in the module docstring.
MAX_CALLS_PER_HIT = 19

#: A stock ``sim`` hit moved 2 798 bytes through json when a payload
#: carried every field; 924 with only the non-default ones.
MAX_JSON_BYTES_PER_HIT = 1000

KEYS = 8


class _Writer:
    """The ``StreamWriter`` method the per-line path uses; keeps the lines."""

    def __init__(self) -> None:
        self.lines = []

    def write(self, data: bytes) -> None:
        self.lines.append(data)


def _params(key: int) -> dict:
    return {"seconds": 0.0, "tag": key}


def _submit_line(rid: int, key: int) -> bytes:
    return protocol.encode({"op": "submit", "id": rid, "v": protocol.VERSION,
                            "scenario": "sleep", "params": _params(key)})


def _serve(server: SimServer, lines) -> list:
    """Feed ``lines`` through the endpoint's per-line path, each answered
    in place; the reply lines, undecoded (the caller's decode must not
    land in the tally)."""
    writer = _Writer()

    async def go():
        lock = asyncio.Lock()
        for line in lines:
            assert server._serve_line(line, writer, lock) is None

    asyncio.run(go())
    return writer.lines


def test_calls_per_cache_hit_submit():
    store = ResultStore()
    for key in range(KEYS):
        store.put(cache_key("sleep", _params(key)), {"slept": 0.0, "tag": key})
    server = SimServer(workers=1, store=store)
    _serve(server, [_submit_line(0, 0)])        # first-use costs stay out

    requests = 200
    lines = [_submit_line(rid, rid % KEYS) for rid in range(1, requests + 1)]
    with counting_calls() as tally:
        raw = _serve(server, lines)
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
    hits = 20_000
    lines = [_submit_line(rid, rid % KEYS) for rid in range(hits)]
    _serve(server, lines[:HISTOGRAM_MAX_SAMPLES])
    latency = server.metrics.histogram("serve.latency")
    assert latency.summary() == _reference_summary(list(latency.values))

    _serve(server, lines[HISTOGRAM_MAX_SAMPLES:])
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
    server = SimServer(workers=1, store=store)
    requests = 100
    lines = [protocol.encode({"op": "submit", "id": rid, "v": protocol.VERSION,
                              "scenario": "sim", "params": params[rid % 2]})
             for rid in range(requests + 1)]
    _serve(server, lines[:1])                   # first-use costs stay out

    moved = []
    loads, dumps = json.loads, json.dumps

    def counting_loads(s, *args, **kw):
        moved.append(len(s))
        return loads(s, *args, **kw)

    def counting_dumps(obj, *args, **kw):
        out = dumps(obj, *args, **kw)
        moved.append(len(out))
        return out

    monkeypatch.setattr(json, "loads", counting_loads)
    monkeypatch.setattr(json, "dumps", counting_dumps)
    raw = _serve(server, lines[1:])
    monkeypatch.undo()

    replies = [protocol.decode(data) for data in raw]
    assert all(r["status"] == "ok" and r["cached"] is True for r in replies)
    assert len(moved) == 3 * requests           # decode, key blob, reply
    per_hit = sum(moved) / requests
    assert per_hit <= MAX_JSON_BYTES_PER_HIT, (
        f"{per_hit:.0f} bytes through json per stock sim hit "
        f"(limit {MAX_JSON_BYTES_PER_HIT}); request line "
        f"{len(lines[1])} B")


def test_malformed_submits_count_once_and_leave_no_open_span():
    """Every shape ``_bad_request`` refuses: each is one error in the
    stats and in ``serve.requests{status=error}``, and none leaves its
    ``serve.request`` span open."""
    tel = LiveTelemetry()
    server = SimServer(workers=1, store=ResultStore(), telemetry=tel)
    submit = {"op": "submit", "scenario": "sleep"}
    malformed = [
        ("unknown scenario", dict(submit, scenario="no-such-scenario")),
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
        return [server._dispatch(msg) for _, msg in malformed]

    replies = asyncio.run(go())
    for (expected, _), reply in zip(malformed, replies):
        assert reply["status"] == "error" and expected in reply["error"]
    assert server.stats.submitted == server.stats.errors == len(malformed)
    assert server.metrics.value("serve.requests", status="error") \
        == len(malformed)
    spans = [ev for ev in tel.export()["traceEvents"] if ev["ph"] == "X"]
    assert [ev["args"]["status"] for ev in spans] == ["error"]
    assert not any(ev["args"].get("open") for ev in spans)
