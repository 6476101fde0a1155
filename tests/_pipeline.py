"""Pipelined requests over one raw connection to a ``repro.serve`` server.

Every request line is written before any reply is read, so the server
holds them all at once: what ``ServeClient`` (one request in flight)
cannot show — admission order, queued deadlines, single-flight of two
same-key submits, how the server frames the bytes it receives — is
visible in the replies.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Sequence

from repro.serve import protocol
from repro.serve.protocol import ServeAddress


def connect(address: ServeAddress, *, timeout: float = 30.0,
            rcvbuf: int = 0) -> socket.socket:
    """A raw connection to ``address`` (``rcvbuf``: a small receive
    buffer, set before connecting so the kernel cannot grow it)."""
    family = socket.AF_UNIX if address.is_unix else socket.AF_INET
    target = address.path if address.is_unix else (address.host, address.port)
    sock = socket.socket(family, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        if rcvbuf:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        if not address.is_unix:
            # Each send leaves as its own segment: no Nagle coalescing.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.connect(target)
    except OSError:
        sock.close()
        raise
    return sock


def pipelined(address: ServeAddress, msgs: List[Dict[str, Any]], *,
              timeout: float = 30.0) -> List[Dict[str, Any]]:
    """Send ``msgs`` back to back on one connection (ids 1..n, stamped
    with the protocol version); the replies, in the order they arrived."""
    with connect(address, timeout=timeout) as sock:
        with sock.makefile("rwb") as fh:
            for rid, msg in enumerate(msgs, 1):
                fh.write(line(rid, msg))
            fh.flush()
            return [protocol.decode(fh.readline()) for _ in msgs]


def submit(scenario: str, params: Dict[str, Any], **fields: Any) -> Dict[str, Any]:
    """One ``submit`` request object (``fields``: e.g. ``deadline_s``)."""
    return dict(fields, op="submit", scenario=scenario, params=params)


def line(rid: int, msg: Dict[str, Any]) -> bytes:
    """``msg`` as one request line with id ``rid``, version-stamped."""
    return protocol.encode(dict(msg, id=rid, v=protocol.VERSION))


def sent_in_pieces(address: ServeAddress, pieces: Sequence[bytes], *,
                   gap_s: float = 0.05,
                   timeout: float = 30.0) -> List[Dict[str, Any]]:
    """Send each of ``pieces`` with its own ``send``, ``gap_s`` apart,
    then half-close; every reply until the server hangs up, in the
    order they arrived."""
    with connect(address, timeout=timeout) as sock:
        for i, piece in enumerate(pieces):
            if i:
                time.sleep(gap_s)
            sock.sendall(piece)
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as fh:
            return [protocol.decode(reply) for reply in fh]
