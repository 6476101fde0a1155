"""Clients for the ``repro.serve`` job server.

:class:`ServeClient` — synchronous, one request in flight per
connection; the natural fit for scripts and per-thread loadgen actors.

:class:`AsyncServeClient` — asyncio, multiplexed: many concurrent
``submit()`` awaitables share one connection, matched to out-of-order
server completions by request id.

Both speak the newline-JSON protocol of :mod:`repro.serve.protocol`
and address endpoints through one :class:`~repro.serve.protocol
.ServeAddress` (TCP or unix socket)::

    with ServeClient(srv.address) as c:
        r = c.submit("sim", {"spec": spec.to_payload(), "seed": 3})
        assert r["status"] == "ok"

Robustness (docs/robustness.md): both clients retry the initial
connect with bounded seeded backoff, and :class:`ServeClient`
additionally survives a connection dying *mid-rpc* — it reconnects and
resubmits the same request up to ``retries`` times within an optional
wall-clock ``retry_deadline_s``.  Resubmission is safe because the
server single-flights by cache key: a retried submit coalesces onto
(or cache-hits) the original computation, never re-running it.
"""

from __future__ import annotations

import asyncio
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
                    sock.settimeout(self.timeout)
                    sock.connect(self.address.path)
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


class AsyncServeClient:
    """Multiplexing asyncio client: ``await connect()`` then fire away."""

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()
        self._trace_prefix: Optional[str] = None
        self._trace_ids = itertools.count(1)
        self._dead: Optional[Exception] = None

    @classmethod
    async def connect(cls, address: Union[ServeAddress, str, None] = None, *,
                      trace: Optional[str] = None,
                      retries: int = 2,
                      retry_base: float = 0.05) -> "AsyncServeClient":
        """Connect, retrying a refused/unreachable server ``retries``
        times with exponential backoff before giving up."""
        self = cls()
        self._trace_prefix = trace
        addr = as_address(address, caller="AsyncServeClient.connect")
        self.address = addr
        last: Optional[OSError] = None
        for attempt in range(max(0, retries) + 1):
            try:
                if addr.is_unix:
                    self._reader, self._writer = (
                        await asyncio.open_unix_connection(addr.path))
                else:
                    self._reader, self._writer = await asyncio.open_connection(
                        addr.host, addr.port)
                break
            except OSError as err:
                last = err
                if attempt < retries:
                    await asyncio.sleep(retry_base * (2 ** attempt))
        else:
            assert last is not None
            raise last
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = protocol.decode(line)
                except protocol.ProtocolError:
                    break       # torn reply: the connection is dead
                fut = self._pending.pop(response.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(response)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            # Fail everything in flight *and* mark the client dead, so
            # an rpc racing the reader's exit can't register a future
            # nobody will ever resolve: a dead server is an error at
            # once, never a hang.
            self._dead = ServeConnectionError("server closed the connection")
            for fut in self._pending.values():
                if not fut.done():
                    fut.set_exception(
                        ServeConnectionError("server closed the connection"))
            self._pending.clear()

    async def _rpc(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        if self._dead is not None:
            raise ServeConnectionError(str(self._dead))
        rid = next(self._ids)
        msg = dict(msg, id=rid, v=protocol.VERSION)
        fut = asyncio.get_running_loop().create_future()
        self._pending[rid] = fut
        if self._dead is not None:      # reader died while we registered
            self._pending.pop(rid, None)
            raise ServeConnectionError(str(self._dead))
        try:
            async with self._write_lock:
                self._writer.write(protocol.encode(msg))
                await self._writer.drain()
        except (ConnectionError, OSError) as err:
            self._pending.pop(rid, None)
            raise ServeConnectionError(
                f"send failed: {type(err).__name__}: {err}") from None
        return await fut

    async def submit(self, scenario: str,
                     params: Optional[Dict[str, Any]] = None, *,
                     deadline_s: Optional[float] = None) -> Dict[str, Any]:
        msg: Dict[str, Any] = {"op": "submit", "scenario": scenario,
                               "params": params or {}}
        if deadline_s is not None:
            msg["deadline_s"] = deadline_s
        if self._trace_prefix is not None:
            from repro.obs.live import trace_id
            msg["trace"] = trace_id(self._trace_prefix, next(self._trace_ids))
        return await self._rpc(msg)

    async def stats(self) -> Dict[str, Any]:
        return await self._rpc({"op": "stats"})

    async def health(self) -> Dict[str, Any]:
        return await self._rpc({"op": "health"})

    async def metrics(self) -> Dict[str, Any]:
        return await self._rpc({"op": "metrics"})

    async def drain(self) -> Dict[str, Any]:
        return await self._rpc({"op": "drain"})

    async def resize(self, workers: int) -> Dict[str, Any]:
        return await self._rpc({"op": "resize", "workers": workers})

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
