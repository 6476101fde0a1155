"""Pipelined requests over one raw connection to a ``repro.serve`` server.

Every request line is written before any reply is read, so the server
holds them all at once: what ``ServeClient`` (one request in flight)
cannot show — admission order, queued deadlines, single-flight of two
same-key submits — is visible in the replies.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List

from repro.serve import protocol
from repro.serve.protocol import ServeAddress


def pipelined(address: ServeAddress, msgs: List[Dict[str, Any]], *,
              timeout: float = 30.0) -> List[Dict[str, Any]]:
    """Send ``msgs`` back to back on one connection (ids 1..n, stamped
    with the protocol version); the replies, in the order they arrived."""
    family = socket.AF_UNIX if address.is_unix else socket.AF_INET
    target = address.path if address.is_unix else (address.host, address.port)
    with socket.socket(family, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(target)
        with sock.makefile("rwb") as fh:
            for rid, msg in enumerate(msgs, 1):
                fh.write(protocol.encode(dict(msg, id=rid, v=protocol.VERSION)))
            fh.flush()
            return [protocol.decode(fh.readline()) for _ in msgs]


def submit(scenario: str, params: Dict[str, Any], **fields: Any) -> Dict[str, Any]:
    """One ``submit`` request object (``fields``: e.g. ``deadline_s``)."""
    return dict(fields, op="submit", scenario=scenario, params=params)
