"""How a line of newline-JSON becomes a response on a listening socket.

:class:`Endpoint` is what :class:`~repro.serve.server.SimServer` and
:class:`~repro.serve.router.FleetRouter` have in common: bind a TCP or
unix-domain :class:`~repro.serve.protocol.ServeAddress`, read one
request object per line, answer each through the owner's
``_dispatch(msg)`` (pipelined — a slow request never blocks the lines
behind it), echo the request ``id``, and stop in an order that leaves
no client waiting on a reply nobody will write.  What a request *means*
and what is torn down (a worker pool, shard connections) stays theirs.

:class:`LoopThread` hosts anything with ``start()``/``stop()``/
``address`` on a private event loop in a thread, for synchronous
callers; ``ServerThread`` and ``FleetThread`` are its two named uses.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Any, Callable, Dict, List, Optional

from repro.serve import protocol
from repro.serve.pool import release_listener, share_listener


class Endpoint:
    """A listening newline-JSON endpoint; owners supply ``_dispatch``.

    ``await start()`` binds ``address`` (``port=0`` is rebound to the
    ephemeral port taken, so ``address``/``host``/``port`` name the live
    socket); ``stopped`` is set once ``await stop()`` completes.
    """

    def __init__(self, address: protocol.ServeAddress) -> None:
        self.address = address
        self._server: Optional[asyncio.AbstractServer] = None
        self._listen_fds: List[int] = []
        self._conn_tasks: set = set()
        self._stopping = False
        self.stopped = asyncio.Event()      # set once stop() completes

    @property
    def host(self) -> str:
        return self.address.host

    @property
    def port(self) -> int:
        return self.address.port

    # -- what an owner supplies ----------------------------------------------
    async def _dispatch(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """The response object for one decoded request."""
        raise NotImplementedError

    async def _answer_admitted(self) -> None:
        """Stop working and resolve every request already admitted, so
        the handlers still holding one can write its reply."""

    async def _teardown(self) -> None:
        """Release what only the owner holds, after the last reply."""

    # -- lifecycle -----------------------------------------------------------
    async def start(self):
        """Bind and listen; returns ``self`` with ``address`` concrete."""
        if self.address.is_unix:
            try:
                os.unlink(self.address.path)   # stale socket from a dead run
            except OSError:
                pass
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=self.address.path)
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, host=self.address.host,
                port=self.address.port)
            port = self._server.sockets[0].getsockname()[1]
            self.address = self.address.with_port(port)
        # Forked workers must close their inherited copy of the listen
        # socket, or a stopped endpoint's port would stay accepting for
        # as long as any worker in the process lives (see serve.pool).
        self._listen_fds = [sock.fileno() for sock in self._server.sockets]
        for fd in self._listen_fds:
            share_listener(fd)
        return self

    async def stop(self) -> None:
        """Hard stop.  The order is the contract (docs/serving.md,
        "Shutdown semantics"): stop accepting; let the owner answer what
        it admitted; only then reap the connection handlers — each waits
        for the replies of its own in-flight lines, so reaping first
        would wait forever on requests nobody is going to resolve."""
        if self._stopping:                  # a shutdown op raced the host
            await self.stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            for fd in self._listen_fds:
                release_listener(fd)
            self._listen_fds = []
            if self.address.is_unix:
                try:
                    os.unlink(self.address.path)
                except OSError:
                    pass
        await self._answer_admitted()
        # Handlers for abruptly-dropped clients can still be finishing;
        # reap them all so loop teardown never destroys a pending task.
        conns = list(self._conn_tasks)
        for task in conns:
            task.cancel()
        await asyncio.gather(*conns, return_exceptions=True)
        self._conn_tasks.clear()
        await self._teardown()
        self.stopped.set()

    # -- the wire ------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        me = asyncio.current_task()
        if me is not None:
            self._conn_tasks.add(me)
            me.add_done_callback(self._conn_tasks.discard)
        lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            # Cancelled by stop(): finish cleanly rather than letting
            # the cancellation propagate — the streams machinery's
            # done-callback calls task.exception() and would log a
            # spurious CancelledError for every still-open connection.
            if not self._stopping:
                raise
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            # close() without wait_closed(): awaiting here leaves the
            # handler task pending across loop teardown, which asyncio's
            # streams machinery reports as a spurious CancelledError.
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                          lock: asyncio.Lock) -> None:
        try:
            msg = protocol.decode(line)
        except protocol.ProtocolError as err:
            await self._send(writer, lock, {"status": protocol.STATUS_ERROR,
                                            "error": str(err)})
            return
        response = await self._dispatch(msg)
        if "id" in msg:
            response["id"] = msg["id"]
        await self._send(writer, lock, response)

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, lock: asyncio.Lock,
                    obj: Dict[str, Any]) -> None:
        try:
            data = protocol.encode(obj)
        except (TypeError, ValueError) as err:
            data = protocol.encode({"status": protocol.STATUS_ERROR,
                                    "id": obj.get("id"),
                                    "error": f"unserializable result: {err}"})
        async with lock:
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                pass            # client went away; the work still completed


class LoopThread:
    """Run one ``start()``/``stop()`` service on a private event loop in
    a thread (tests, the CLI's self-hosted loadgen, the benchmark).

    ``factory`` builds the service *on the loop thread*, where its
    asyncio primitives belong; a failure to start is re-raised from
    ``__enter__`` instead of hanging it.
    """

    def __init__(self, factory: Callable[[], Any], name: str) -> None:
        self._factory = factory
        self._name = name
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._service: Any = None

    def __enter__(self):
        started = threading.Event()
        boot_error: List[BaseException] = []

        def _run() -> None:
            self._loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self._loop)
            try:
                self._service = self._loop.run_until_complete(
                    self._factory().start())
            except BaseException as err:   # fail fast, don't hang __enter__
                boot_error.append(err)
                started.set()
                return
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=_run, name=self._name,
                                        daemon=True)
        self._thread.start()
        if not started.wait(timeout=30.0):
            raise RuntimeError(f"{self._name} failed to start within 30s")
        if boot_error:
            self._thread.join(timeout=10.0)
            self._loop = None
            raise boot_error[0]
        return self

    @property
    def address(self) -> protocol.ServeAddress:
        return self._service.address

    @property
    def host(self) -> str:
        return self.address.host

    @property
    def port(self) -> int:
        return self.address.port

    def call(self, coro_fn, *args: Any, timeout: float = 60.0) -> Any:
        """Run ``coro_fn(service, *args)`` on the service's loop."""
        fut = asyncio.run_coroutine_threadsafe(
            coro_fn(self._service, *args), self._loop)
        return fut.result(timeout=timeout)

    def __exit__(self, *exc: Any) -> None:
        if self._loop is not None:
            asyncio.run_coroutine_threadsafe(
                self._service.stop(), self._loop).result(timeout=30.0)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            self._loop.close()
