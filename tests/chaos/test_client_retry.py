"""Client hardening: connect retry, reconnect-and-resubmit under drops."""

from __future__ import annotations

import gc
import socket
import threading
import warnings

import pytest

from repro.chaos import ChaosPlan
from repro.serve import ServeAddress, ServeClient, ServeConnectionError, \
    ServerThread, protocol

pytestmark = pytest.mark.chaos


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestConnectRetry:
    def test_sync_client_raises_after_bounded_retries(self):
        with pytest.raises(OSError):
            ServeClient(ServeAddress(port=_free_port()), retries=1,
                        retry_base=0.001)

    def test_failed_unix_connects_leave_no_socket_open(self, tmp_path):
        """Every failed attempt closes its own socket; none is left for
        the collector to find (and warn about) later."""
        missing = ServeAddress(path=str(tmp_path / "no-server.sock"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                ServeClient(missing, retries=2, retry_base=0.001)
            gc.collect()
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_connect_retry_wins_when_server_appears(self):
        """The server binds between the first (failing) and a later
        connect attempt — the client must come up without an error."""
        port = _free_port()
        import threading
        srv_box = {}

        def boot():
            srv_box["srv"] = ServerThread(
                workers=1, address=ServeAddress(port=port)).__enter__()

        t = threading.Timer(0.15, boot)
        t.start()
        try:
            with ServeClient(ServeAddress(port=port), retries=8,
                             retry_base=0.05) as client:
                assert client.health()["status"] == "ok"
        finally:
            t.join()
            srv_box["srv"].__exit__(None, None, None)


class TestDropResubmit:
    def test_drop_mid_line_is_resubmitted(self):
        plan = ChaosPlan().drop_conn("mid", after_count=1)
        with ServerThread(workers=1) as srv:
            with ServeClient(srv.address, retries=2,
                             retry_base=0.001, chaos=plan) as client:
                r = client.submit("sleep", {"seconds": 0.0, "tag": "t"})
                assert r["status"] == "ok"
                assert r["result"]["tag"] == "t"
                assert (client.reconnects, client.resubmits) == (1, 1)
        assert plan.stats == {"drop_conn": 1}

    def test_drop_after_send_is_resubmitted_without_recompute(self):
        """Reply lost after the server computed: the resubmit must be
        answered from cache/single-flight, not recomputed."""
        plan = ChaosPlan().drop_conn("after", after_count=1)
        with ServerThread(workers=1, cache_dir=None) as srv:
            # No cache: the dropped-reply request is recomputed, which
            # is still correct for deterministic scenarios.
            with ServeClient(srv.address, retries=2,
                             retry_base=0.001, chaos=plan) as client:
                r = client.submit("sleep", {"seconds": 0.0})
                assert r["status"] == "ok"
                assert client.resubmits == 1

    def test_drop_after_send_is_deduplicated_by_the_server(self, tmp_path):
        """Reply lost after the server computed: the resubmit is
        answered from the cache (first delivery already finished) or by
        coalescing onto it (still in flight) — either way the scenario
        ran exactly once."""
        plan = ChaosPlan().drop_conn("after", after_count=1)
        with ServerThread(workers=1, cache_dir=str(tmp_path)) as srv:
            with ServeClient(srv.address, retries=2,
                             retry_base=0.001, chaos=plan) as client:
                r = client.submit("sleep", {"seconds": 0.0})
                assert r["status"] == "ok"
            stats = srv.server.stats
            assert stats.cache_hits + stats.coalesced == 1
            assert srv.server.metrics.merged_histogram("serve.run").count == 1

    def test_retry_budget_exhausted_raises(self):
        plan = (ChaosPlan().drop_conn("mid", after_count=1)
                .drop_conn("mid", after_count=2))
        with ServerThread(workers=1) as srv:
            with ServeClient(srv.address, retries=1,
                             retry_base=0.001, chaos=plan) as client:
                with pytest.raises((ConnectionError, OSError)):
                    client.submit("sleep", {"seconds": 0.0})

    def test_retry_deadline_caps_the_retry_loop(self):
        plan = ChaosPlan().drop_conn("mid", max_hits=None)
        with ServerThread(workers=1) as srv:
            with ServeClient(srv.address, retries=50,
                             retry_base=0.5, retry_deadline_s=0.05,
                             chaos=plan) as client:
                with pytest.raises((ConnectionError, OSError)):
                    client.submit("sleep", {"seconds": 0.0})
        # Far fewer sends than the nominal 50-retry budget.
        assert plan.stats["drop_conn"] <= 3

    def test_backoff_is_seeded_and_deterministic(self):
        a = ServeClient.__new__(ServeClient)
        a.retry_seed, a.retry_base = 7, 0.05
        b = ServeClient.__new__(ServeClient)
        b.retry_seed, b.retry_base = 7, 0.05
        assert [a._backoff(i) for i in (1, 2, 3)] \
            == [b._backoff(i) for i in (1, 2, 3)]
        c = ServeClient.__new__(ServeClient)
        c.retry_seed, c.retry_base = 8, 0.05
        assert a._backoff(1) != c._backoff(1)


class _TornReplyServer:
    """A raw socket server that answers its first connection with half
    a reply line and EOF (a server dying mid-write), or with a reply
    addressed to another request, and every later one properly."""

    def __init__(self, first: str) -> None:
        self.first = first
        self.connections = 0
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        self.address = ServeAddress(port=self._sock.getsockname()[1])
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn, conn.makefile("rwb") as fh:
                self.connections += 1
                request = protocol.decode(fh.readline())
                reply = {"status": "ok", "result": {"n": self.connections},
                         "id": request["id"]}
                if self.connections > 1:
                    fh.write(protocol.encode(reply))
                elif self.first == "torn":
                    data = protocol.encode(reply)
                    fh.write(data[:len(data) // 2])
                else:
                    fh.write(protocol.encode(dict(reply, id=10_000)))
                fh.flush()

    def close(self) -> None:
        self._sock.shutdown(socket.SHUT_RDWR)   # wakes the blocked accept()
        self._sock.close()
        self._thread.join(timeout=10.0)
        assert not self._thread.is_alive()


class TestUntrustworthyReply:
    """A reply the client cannot decode, or one for another request,
    is a dead connection — it must take the reconnect-and-resubmit path
    (not escape as JSONDecodeError, not pass an ``assert`` under -O)."""

    @pytest.mark.parametrize("first", ["torn", "misaddressed"])
    def test_one_retry_recovers(self, first):
        server = _TornReplyServer(first)
        try:
            with ServeClient(server.address, retries=1, retry_base=0.001,
                             timeout=10.0) as client:
                r = client.submit("sleep", {"seconds": 0.0})
                assert r["status"] == "ok" and r["result"] == {"n": 2}
                assert (client.reconnects, client.resubmits) == (1, 1)
        finally:
            server.close()

    @pytest.mark.parametrize("first", ["torn", "misaddressed"])
    def test_no_retries_raises_a_connection_error(self, first):
        server = _TornReplyServer(first)
        try:
            with ServeClient(server.address, retries=0,
                             timeout=10.0) as client:
                with pytest.raises(ServeConnectionError):
                    client.submit("sleep", {"seconds": 0.0})
        finally:
            server.close()
