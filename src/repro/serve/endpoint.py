"""How a line of newline-JSON becomes a response on a listening socket.

:class:`Endpoint` is the socket half of
:class:`~repro.serve.server.SimServer`: bind a TCP or unix-domain
:class:`~repro.serve.protocol.ServeAddress`, read one request object per
line, answer each through the owner's ``_dispatch(msg)`` (in place when
it returns the response, else from a task: a slow request never blocks
the lines behind it), echo the request ``id``, refuse over-long lines,
and stop in an order that leaves no client waiting on a reply nobody
will write.  What a request *means* and what is torn down (the worker
pool) stays the owner's.  Synchronous callers host one on a private
loop through :mod:`repro.serve.thread`.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Awaitable, Dict, List, Optional, Union

from repro.serve import protocol
from repro.serve.pool import release_listener, share_listener

#: What an owner answers a request with: the response, or its awaitable.
Reply = Union[Dict[str, Any], Awaitable[Dict[str, Any]]]

#: Samples each histogram of a server's registry keeps:
#: percentiles are exact up to this many, memory flat past it.
HISTOGRAM_MAX_SAMPLES = 4096


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
    def _dispatch(self, msg: Dict[str, Any]) -> Reply:
        """The response object for one decoded request, or its awaitable."""
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
                self._handle_conn, path=self.address.path,
                limit=protocol.MAX_LINE)
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, host=self.address.host,
                port=self.address.port, limit=protocol.MAX_LINE)
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
        high = writer.transport.get_write_buffer_limits()[1]
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as err:
                    line = err.partial      # EOF: b"", or an unterminated last line
                except asyncio.LimitOverrunError:
                    # Over MAX_LINE: refused unparsed (no id), so the
                    # client never resubmits it; then hang up.
                    self._reply(writer, {}, {
                        "status": protocol.STATUS_ERROR,
                        "error": f"request line exceeds {protocol.MAX_LINE} bytes"})
                    await self._skip_line(reader)
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                later = self._serve_line(line, writer, lock)
                if later is not None:
                    task = asyncio.ensure_future(later)
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                elif writer.transport.get_write_buffer_size() > high:
                    await self._drain(writer, lock)
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

    @staticmethod
    async def _skip_line(reader: asyncio.StreamReader) -> None:
        """Drop the rest of an over-long line: closing on unread input
        resets the connection, which can destroy the refusal unread."""
        while True:
            try:
                await reader.readuntil(b"\n")
                return
            except asyncio.LimitOverrunError as err:
                await reader.readexactly(err.consumed)  # already buffered
            except asyncio.IncompleteReadError:
                return                                  # EOF

    def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                    lock: asyncio.Lock) -> Optional[Awaitable[None]]:
        """Write the reply to ``line`` now if it is known at once (a cache
        hit, a malformed line); else return the coroutine that will."""
        try:
            msg = protocol.decode(line)
        except protocol.ProtocolError as err:
            msg, response = {}, {"status": protocol.STATUS_ERROR,
                                 "error": str(err)}
        else:
            response = self._dispatch(msg)
            if not isinstance(response, dict):
                return self._reply_later(response, msg, writer, lock)
        self._reply(writer, msg, response)
        return None

    async def _reply_later(self, pending: Awaitable[Dict[str, Any]],
                           msg: Dict[str, Any], writer: asyncio.StreamWriter,
                           lock: asyncio.Lock) -> None:
        self._reply(writer, msg, await pending)
        await self._drain(writer, lock)

    @staticmethod
    def _reply(writer: asyncio.StreamWriter, msg: Dict[str, Any],
               response: Dict[str, Any]) -> None:
        """Write ``response`` as one line, echoing ``msg``'s ``id``."""
        if "id" in msg:
            response["id"] = msg["id"]
        try:
            data = protocol.encode(response)
        except (TypeError, ValueError) as err:
            data = protocol.encode({"status": protocol.STATUS_ERROR,
                                    "id": response.get("id"),
                                    "error": f"unserializable result: {err}"})
        writer.write(data)

    @staticmethod
    async def _drain(writer: asyncio.StreamWriter, lock: asyncio.Lock) -> None:
        async with lock:        # one drain at a time per connection
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass            # client went away; the work still completed

