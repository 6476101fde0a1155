"""How a connection frames the bytes it receives, through a raw socket.

A request line may arrive with others in one segment, split over
several, padded with blank lines, or cut short by the client's EOF; a
reply that must wait lets the lines behind it be answered first; and a
client that does not read its replies stops the server reading its
requests until it does.
"""

from __future__ import annotations

import time

import pytest

from repro.serve import ResultStore, ServerThread, protocol
from repro.serve.endpoint import _Connection
from repro.sweep import cache_key
from tests._pipeline import connect, line, pipelined, sent_in_pieces, submit

pytestmark = pytest.mark.serve

HEALTH = {"op": "health"}


@pytest.fixture(scope="module")
def srv():
    with ServerThread(workers=1, capacity=4) as server:
        yield server


def _ok_ids(replies):
    assert all(r["status"] == "ok" for r in replies), replies
    return [r["id"] for r in replies]


def test_two_requests_in_one_send(srv):
    replies = sent_in_pieces(srv.address, [line(1, HEALTH) + line(2, HEALTH)])
    assert _ok_ids(replies) == [1, 2]


def test_one_request_split_over_three_sends(srv):
    data = line(7, HEALTH)
    third = len(data) // 3
    pieces = [data[:third], data[third:2 * third], data[2 * third:]]
    replies = sent_in_pieces(srv.address, pieces)
    assert _ok_ids(replies) == [7]


def test_blank_lines_are_skipped(srv):
    pieces = [b"\n", b"  \r\n\t\n" + line(3, HEALTH) + b"\n \n", b"\n"]
    replies = sent_in_pieces(srv.address, pieces)
    assert _ok_ids(replies) == [3]


def test_unterminated_last_line_is_answered_before_the_hang_up(srv):
    """The client half-closes after a line with no newline: the server
    answers it, then closes (the reply list ends at the server's EOF)."""
    data = line(1, HEALTH) + line(2, HEALTH).rstrip(b"\n")
    replies = sent_in_pieces(srv.address, [data])
    assert _ok_ids(replies) == [1, 2]


def test_a_hit_behind_a_miss_is_answered_first():
    hit = {"seconds": 0.0, "tag": "hit"}
    store = ResultStore()
    store.put(cache_key("sleep", hit), {"slept": 0.0, "tag": "hit"})
    with ServerThread(workers=1, store=store) as server:
        replies = pipelined(server.address, [
            submit("sleep", {"seconds": 0.3, "tag": "miss"}),
            submit("sleep", hit)])
    assert [(r["id"], r["cached"]) for r in replies] == [(2, True), (1, False)]
    assert replies[0]["result"]["tag"] == "hit"
    assert replies[1]["result"]["tag"] == "miss"


def test_a_client_not_reading_pauses_reading(monkeypatch):
    """Replies a client leaves unread fill the socket buffers, then the
    transport's; past its high-water mark the connection reads and
    answers no more requests until the client reads, and then answers
    every one, in order."""
    calls = []
    for name in ("pause_writing", "resume_writing"):
        method = getattr(_Connection, name)

        def spy(self, method=method, name=name):
            calls.append(name)
            method(self)

        monkeypatch.setattr(_Connection, name, spy)
    params = {"seconds": 0.0, "tag": "big"}
    store = ResultStore()
    store.put(cache_key("sleep", params), {"blob": "x" * 100_000})
    requests = 128                  # 12.8 MB of replies, 4 MB of kernel buffer
    # 1 KB of padding (a field the server ignores) per line: more request
    # bytes wait while the connection is paused than one line may hold.
    lines = [line(rid, submit("sleep", params, pad="p" * 1000))
             for rid in range(1, requests + 1)]
    assert sum(map(len, lines)) > 2 * protocol.MAX_LINE
    with ServerThread(workers=1, store=store) as server:
        with connect(server.address, rcvbuf=16_384) as sock:
            sock.sendall(b"".join(lines))
            deadline = time.monotonic() + 20.0
            while not calls and time.monotonic() < deadline:
                time.sleep(0.01)    # the server fills what it can, then waits
            assert calls and calls[-1] == "pause_writing"
            with sock.makefile("rb") as fh:
                replies = [protocol.decode(fh.readline())
                           for _ in range(requests)]
    assert _ok_ids(replies) == list(range(1, requests + 1))
    assert all(r["cached"] is True for r in replies)
    assert calls.count("pause_writing") == calls.count("resume_writing") >= 1
