"""Deterministic cost gate: interpreted work per cache-hit ``submit``.

The benchmark's ``serve-hot`` row times a 0.16 ms request that is mostly
thread hand-over, so run-to-run spread swamps anything the serve code
does.  The number of Python-level calls made inside ``src/repro``
repeats exactly (``tests/_callcount.py``): here ``Endpoint._serve_line``
is driven in-process — a stub writer, a pre-filled ``ResultStore``, no
socket, no thread, no worker pool — and every request hits.  Twin of
``tests/ompi/test_message_path_cost.py``.

19 calls per hit before the submit epilogue became one function
(``_serve_line``, ``decode``, ``_dispatch``, ``check_version``,
``_op_submit``, ``scenario_names``, ``cache_key``, ``source_digest``,
``ResultStore.get``, ``_probe``, 2 x ``inc``, ``observe`` + the
histogram's own, 3 x ``_key``, ``_send``, ``encode``); 20 with it.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs import LiveTelemetry
from repro.serve import ResultStore, SimServer, protocol
from repro.sweep import cache_key
from tests._callcount import counting_calls

pytestmark = pytest.mark.serve

#: One frame of slack over the parent commit's 19 — the shared epilogue.
MAX_CALLS_PER_HIT = 20

KEYS = 8


class _Writer:
    """The two ``StreamWriter`` methods ``_send`` uses; keeps the lines."""

    def __init__(self) -> None:
        self.lines = []

    def write(self, data: bytes) -> None:
        self.lines.append(data)

    async def drain(self) -> None:
        pass


def _params(key: int) -> dict:
    return {"seconds": 0.0, "tag": key}


def _submit_line(rid: int, key: int) -> bytes:
    return protocol.encode({"op": "submit", "id": rid, "v": protocol.VERSION,
                            "scenario": "sleep", "params": _params(key)})


def _serve(server: SimServer, lines) -> list:
    """Feed ``lines`` through the endpoint's per-line path; the reply
    lines, undecoded (the caller's decode must not land in the tally)."""
    writer, lock = _Writer(), None

    async def go():
        nonlocal lock
        lock = asyncio.Lock()
        for line in lines:
            await server._serve_line(line, writer, lock)

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


def test_malformed_submits_count_once_and_leave_no_open_span():
    """The four shapes ``_bad_request`` refuses: each is one error in the
    stats and in ``serve.requests{status=error}``, and none leaves its
    ``serve.request`` span open."""
    tel = LiveTelemetry()
    server = SimServer(workers=1, store=ResultStore(), telemetry=tel)
    submit = {"op": "submit", "scenario": "sleep"}
    malformed = {
        "unknown scenario": dict(submit, scenario="no-such-scenario"),
        "params must be a JSON object": dict(submit, params=[1, 2]),
        # Cannot arrive as JSON; an in-process dispatch can carry it.
        "params not cacheable": dict(submit, params={"tag": object()}),
        "deadline_s must be a number": dict(submit, deadline_s="soon"),
    }

    async def go():
        return [await server._dispatch(msg) for msg in malformed.values()]

    replies = asyncio.run(go())
    for expected, reply in zip(malformed, replies):
        assert reply["status"] == "error" and expected in reply["error"]
    assert server.stats.submitted == server.stats.errors == len(malformed)
    assert server.metrics.value("serve.requests", status="error") \
        == len(malformed)
    spans = [ev for ev in tel.export()["traceEvents"] if ev["ph"] == "X"]
    assert [ev["args"]["status"] for ev in spans] == ["error"]
    assert not any(ev["args"].get("open") for ev in spans)
