"""How a line of newline-JSON becomes a response on a listening socket.

:class:`Endpoint` is the socket half of
:class:`~repro.serve.server.SimServer`: bind a TCP or unix-domain
:class:`~repro.serve.protocol.ServeAddress` and give each connection one
:class:`asyncio.Protocol` that splits the bytes it receives into request
lines and answers each through the owner's ``_dispatch(msg)``: in place
when it returns the response, else from a task (a slow request never
blocks the lines behind it).  It echoes the request ``id``, refuses
over-long lines, pauses reading while the client is not reading its
replies, and stops in an order that leaves no client waiting on a reply
nobody will write.  What a request *means* and what is torn down (the
worker pool) stays the owner's.  Synchronous callers host one on a
private loop through :mod:`repro.serve.thread`.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Awaitable, Dict, List, Optional, Set, Union

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
    ephemeral port taken, so ``address`` names the live socket);
    ``stopped`` is set once ``await stop()`` completes.
    """

    def __init__(self, address: protocol.ServeAddress) -> None:
        self.address = address
        self._server: Optional[asyncio.AbstractServer] = None
        self._listen_fds: List[int] = []
        self._conns: Set[_Connection] = set()
        self._stopping = False
        self.stopped = asyncio.Event()      # set once stop() completes

    # -- what an owner supplies ----------------------------------------------
    def _dispatch(self, msg: Dict[str, Any]) -> Reply:
        """The response object for one decoded request, or its awaitable."""
        raise NotImplementedError

    async def _answer_admitted(self) -> None:
        """Stop working and resolve every request already admitted, so
        the connections still owed a reply can write it."""

    async def _teardown(self) -> None:
        """Release what only the owner holds, after the last reply."""

    # -- lifecycle -----------------------------------------------------------
    async def start(self):
        """Bind and listen; returns ``self`` with ``address`` concrete."""
        loop = asyncio.get_running_loop()
        if self.address.is_unix:
            try:
                os.unlink(self.address.path)   # stale socket from a dead run
            except OSError:
                pass
            self._server = await loop.create_unix_server(
                lambda: _Connection(self), path=self.address.path)
        else:
            self._server = await loop.create_server(
                lambda: _Connection(self), host=self.address.host,
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
        it admitted; only then hang up each connection, after the
        replies of its own in-flight lines — waiting for those first
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
        # Every admitted request is resolved now: let the reply tasks
        # write, so loop teardown never destroys a pending one.
        conns = list(self._conns)
        await asyncio.gather(*(task for conn in conns for task in conn.pending),
                             return_exceptions=True)
        for conn in conns:
            conn.transport.close()
        await self._teardown()
        self.stopped.set()


class _Connection(asyncio.Protocol):
    """One client connection of an :class:`Endpoint`.

    ``data_received`` splits lines out of the bytes received and answers
    each: a reply known at once (a cache hit, a refusal) is written from
    it, and only a reply that must wait gets a task, in ``pending``.
    After the client's EOF, or an over-long line, nothing more is
    served and the connection closes once ``pending`` is empty.
    """

    def __init__(self, endpoint: Endpoint) -> None:
        self._endpoint = endpoint
        self.transport: Any = None
        self.pending: set = set()       # tasks writing replies that waited
        self._buf = b""                 # received bytes not yet served
        self._paused = False            # the client is not reading replies
        self._eof = False               # the client sent its last byte
        self._refused = False           # an over-long line was answered
        self._skipping = False          # ... and the rest of it is arriving

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self._endpoint._conns.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._endpoint._conns.discard(self)

    def data_received(self, data: bytes) -> None:
        if self._refused:
            # Drop the rest of the over-long line: closing on unread
            # input resets the connection, which can destroy the
            # refusal unread.
            if self._skipping and b"\n" in data:
                self._skipping = False
                self._hang_up_if_answered()
            return
        buf = self._buf + data if self._buf else data
        start = 0
        while not self._paused:
            end = buf.find(b"\n", start) + 1
            if not end:
                if not self._eof or start == len(buf):
                    break
                end = len(buf)          # the unterminated last line
            line = buf[start:end]
            start = end
            if len(line) > protocol.MAX_LINE + 1:     # + its newline
                self._refuse(skipping=False)
                return
            if not line.strip():
                continue
            try:
                msg = protocol.decode(line)
            except protocol.ProtocolError as err:
                msg, response = {}, {"status": protocol.STATUS_ERROR,
                                     "error": str(err)}
            else:
                response = self._endpoint._dispatch(msg)
                if not isinstance(response, dict):
                    task = asyncio.ensure_future(
                        self._reply_later(response, msg))
                    self.pending.add(task)
                    task.add_done_callback(self._replied)
                    continue
            self._reply(msg, response)
        self._buf = buf[start:]
        # Paused, the rest may hold whole lines; else it is one line's start.
        if not self._paused and len(self._buf) > protocol.MAX_LINE:
            self._refuse(skipping=True)

    def eof_received(self) -> bool:
        self._eof = True
        self._skipping = False
        self.data_received(b"")         # what is buffered, then the tail
        self._hang_up_if_answered()
        return True                     # keep writing the replies

    def pause_writing(self) -> None:
        # The client is not reading its replies: read no more requests
        # (and answer none of those already buffered) until it does.
        self._paused = True
        if not self._eof:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        if not self._eof:
            self.transport.resume_reading()
        self.data_received(b"")
        self._hang_up_if_answered()

    def _refuse(self, *, skipping: bool) -> None:
        """Answer an over-long line unparsed (no id, so the client never
        resubmits it), serve nothing after it, and hang up once the
        rest of it has been read."""
        self._reply({}, {"status": protocol.STATUS_ERROR,
                         "error": f"request line exceeds {protocol.MAX_LINE} bytes"})
        self._buf = b""
        self._refused = True
        self._skipping = skipping and not self._eof
        self._hang_up_if_answered()

    def _hang_up_if_answered(self) -> None:
        if ((self._eof or self._refused) and not self._skipping
                and not self._paused and not self.pending):
            self.transport.close()

    async def _reply_later(self, pending: Awaitable[Dict[str, Any]],
                           msg: Dict[str, Any]) -> None:
        response = await pending
        if not self.transport.is_closing():    # the client went away
            self._reply(msg, response)

    def _replied(self, task: asyncio.Task) -> None:
        self.pending.discard(task)
        self._hang_up_if_answered()

    def _reply(self, msg: Dict[str, Any], response: Dict[str, Any]) -> None:
        """Write ``response`` as one line, echoing ``msg``'s ``id``."""
        if "id" in msg:
            response["id"] = msg["id"]
        try:
            data = protocol.encode(response)
        except (TypeError, ValueError) as err:
            data = protocol.encode({"status": protocol.STATUS_ERROR,
                                    "id": response.get("id"),
                                    "error": f"unserializable result: {err}"})
        self.transport.write(data)
