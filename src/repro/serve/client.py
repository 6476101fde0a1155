"""The client for the ``repro.serve`` job server.

:class:`ServeClient` is synchronous, one request in flight per
connection; the natural fit for scripts and per-thread loadgen actors.
It speaks the newline-JSON protocol of :mod:`repro.serve.protocol` and
addresses endpoints through one :class:`~repro.serve.protocol
.ServeAddress` (TCP or unix socket)::

    with ServeClient(srv.address) as c:
        r = c.submit("sim", {"spec": spec.to_payload(), "seed": 3})
        assert r["status"] == "ok"

Robustness (docs/robustness.md): the client retries the initial
connect with bounded seeded backoff, and survives a connection dying
*mid-rpc* — it reconnects and resubmits the same request up to
``retries`` times within an optional wall-clock ``retry_deadline_s``.
Resubmission is safe because the server single-flights by cache key: a
retried submit coalesces onto (or cache-hits) the original computation,
never re-running it.
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from typing import Any, Dict, Optional, Union

from repro.serve import protocol
from repro.serve.protocol import ServeAddress, as_address


class ServeConnectionError(ConnectionError):
    """The server closed the connection mid-conversation."""


class ServeClient:
    """Blocking client; safe for one thread (use one per thread).

    ``trace="cli"`` makes the client mint one deterministic trace id per
    submit (``cli-1``, ``cli-2``, ...) and send it on the wire; with
    ``telemetry`` also given, each submit is wrapped in a wall-clock
    ``serve.client.request`` span on the ``client:<prefix>`` track, so
    the exported trace shows client-observed latency next to the
    server's own spans for the same trace id.

    ``retries`` bounds both connect attempts (``retries + 1`` total)
    and mid-rpc reconnect-and-resubmit attempts; backoff between them
    is seeded by ``retry_seed`` (deterministic), and
    ``retry_deadline_s`` caps the total wall-clock spent retrying one
    rpc.  ``chaos`` (:class:`repro.chaos.ChaosPlan`) is consulted at
    the ``client.send`` site — a firing ``drop_conn`` tears the
    connection down mid-line or after the send, exercising exactly the
    failure the retry path exists for.
    """

    def __init__(self, address: Union[ServeAddress, str, None] = None, *,
                 timeout: Optional[float] = None,
                 trace: Optional[str] = None,
                 telemetry: Any = None,
                 retries: int = 2,
                 retry_base: float = 0.05,
                 retry_seed: int = 0,
                 retry_deadline_s: Optional[float] = None,
                 chaos: Any = None) -> None:
        self.address = as_address(address, caller="ServeClient")
        self.timeout = timeout
        self.retries = max(0, retries)
        self.retry_base = retry_base
        self.retry_seed = retry_seed
        self.retry_deadline_s = retry_deadline_s
        self.chaos = chaos
        self.reconnects = 0     # connections re-established mid-rpc
        self.resubmits = 0      # requests resubmitted after a drop
        self._ids = itertools.count(1)
        self._trace_prefix = trace
        self._trace_ids = itertools.count(1)
        self.telemetry = telemetry if (telemetry is not None
                                       and telemetry.enabled) else None
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._connect()

    # -- plumbing ------------------------------------------------------------
    def _connect(self) -> None:
        """(Re)establish the connection, retrying with seeded backoff."""
        last: Optional[OSError] = None
        for attempt in range(self.retries + 1):
            try:
                if self.address.is_unix:
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    try:
                        sock.settimeout(self.timeout)
                        sock.connect(self.address.path)
                    except OSError:
                        sock.close()
                        raise
                    self._sock = sock
                else:
                    self._sock = socket.create_connection(
                        (self.address.host, self.address.port),
                        timeout=self.timeout)
                self._file = self._sock.makefile("rwb")
                return
            except OSError as err:
                last = err
                if attempt < self.retries:
                    time.sleep(self._backoff(attempt + 1))
        assert last is not None
        raise last

    def _backoff(self, attempt: int) -> float:
        rng = random.Random(f"{self.retry_seed}:client:{attempt}")
        return self.retry_base * (2 ** (attempt - 1)) * (0.5 + 0.5 * rng.random())

    def _exchange(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """One write/read round-trip (no retry), with the chaos hook."""
        data = protocol.encode(msg)
        if self.chaos is not None:
            for act in self.chaos.on("client.send",
                                     scenario=msg.get("scenario")):
                if act.kind != "drop_conn":
                    continue
                if act.phase == "mid":
                    # A torn request: half the line, no newline, gone.
                    self._file.write(data[:len(data) // 2])
                    self._file.flush()
                    self.close()
                    raise ServeConnectionError(
                        "chaos: connection dropped mid-line")
                self._file.write(data)      # phase == "after"
                self._file.flush()
                self.close()
                raise ServeConnectionError(
                    "chaos: connection dropped awaiting reply")
        self._file.write(data)
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServeConnectionError("server closed the connection")
        # A reply torn by a dying server (half a line, then EOF) or one
        # addressed to another request means this connection can no
        # longer be trusted: fail it the way _rpc knows how to retry.
        try:
            response = protocol.decode(line)
        except protocol.ProtocolError as err:
            raise ServeConnectionError(f"undecodable reply: {err}") from None
        if response.get("id") not in (None, msg["id"]):
            raise ServeConnectionError(
                f"reply for request {response.get('id')!r} while awaiting "
                f"{msg['id']!r}")
        return response

    def _rpc(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        msg = dict(msg, id=next(self._ids), v=protocol.VERSION)
        t0 = time.monotonic()
        attempt = 0
        while True:
            try:
                return self._exchange(msg)
            except (ServeConnectionError, OSError):
                attempt += 1
                if attempt > self.retries:
                    raise
                delay = self._backoff(attempt)
                if self.retry_deadline_s is not None:
                    remaining = self.retry_deadline_s - (time.monotonic() - t0)
                    if remaining <= 0:
                        raise
                    delay = min(delay, remaining)
                time.sleep(delay)
                self.close()
                self._connect()
                self.reconnects += 1
                self.resubmits += 1

    def _mint(self) -> Optional[str]:
        if self._trace_prefix is None:
            return None
        from repro.obs.live import trace_id
        return trace_id(self._trace_prefix, next(self._trace_ids))

    # -- ops -----------------------------------------------------------------
    def submit(self, scenario: str, params: Optional[Dict[str, Any]] = None,
               *, deadline_s: Optional[float] = None) -> Dict[str, Any]:
        msg: Dict[str, Any] = {"op": "submit", "scenario": scenario,
                               "params": params or {}}
        if deadline_s is not None:
            msg["deadline_s"] = deadline_s
        tid = self._mint()
        if tid is not None:
            msg["trace"] = tid
        tel = self.telemetry
        if tel is not None:
            track = f"client:{self._trace_prefix or 'client'}"
            sid = tel.begin(track, "serve.client.request",
                            scenario=scenario, trace=tid)
            try:
                response = self._rpc(msg)
            finally:
                tel.end(sid)
            tel.annotate(sid, status=response.get("status"))
            return response
        return self._rpc(msg)

    def stats(self) -> Dict[str, Any]:
        return self._rpc({"op": "stats"})

    def health(self) -> Dict[str, Any]:
        return self._rpc({"op": "health"})

    def metrics(self) -> Dict[str, Any]:
        return self._rpc({"op": "metrics"})

    def drain(self) -> Dict[str, Any]:
        return self._rpc({"op": "drain"})

    def resize(self, workers: int) -> Dict[str, Any]:
        return self._rpc({"op": "resize", "workers": workers})

    def shutdown(self) -> Dict[str, Any]:
        return self._rpc({"op": "shutdown"})

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
