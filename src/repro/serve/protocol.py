"""Wire format for ``repro.serve``: newline-delimited canonical JSON.

One request object per line, one response object per line.  Responses
carry the request's ``id`` back so a client may pipeline many requests
over a single connection and match out-of-order completions (the async
client does; the sync client keeps one request in flight).

Requests::

    {"op": "submit", "id": 7, "v": 1, "scenario": "sim", "params": {...},
     "deadline_s": 2.5, "trace": "cli-1"}
    {"op": "stats" | "health" | "metrics" | "drain" | "resize"
          | "shutdown", "id": 8, "v": 1, ...op-specific fields...}

Responses always carry ``status``: ``ok`` | ``rejected`` | ``expired``
| ``error``, plus op-specific payload fields (``result``, ``stats``,
``reason``...).  See docs/serving.md for the full catalogue.

``v`` is the protocol version (:data:`VERSION`).  The clients stamp it
on every request; a server receiving a different version answers a
one-line structured error (:func:`version_error`) instead of guessing,
so a client and a server upgraded at different times fail loudly.
Requests *without* ``v`` are accepted as version-1 legacy traffic.

``trace`` is the optional client-minted trace id (live telemetry,
docs/observability.md).  The server echoes it in the submit response
and stamps it on every span and ledger row the request produces; when absent the server mints a fallback ``s-<n>`` id.

:class:`ServeAddress` is the one address type every client, server and
CLI in the serve layer accepts — TCP ``host:port`` or a unix-domain
socket path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.sweep import CANONICAL

#: Wire-protocol version stamped by clients and validated by servers.
VERSION = 1

# Submission outcome statuses (docs/serving.md).
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"     # admission control: queue full / draining
STATUS_EXPIRED = "expired"       # deadline passed in queue or mid-run
STATUS_ERROR = "error"           # scenario raised, worker retries exhausted,
                                 # or the request itself was malformed

OPS = ("submit", "stats", "health", "metrics", "drain", "resize", "shutdown")

#: Longest request line an endpoint reads; a longer one is refused.
MAX_LINE = 2 ** 16


class ProtocolError(ValueError):
    """A line that is not a JSON object with a valid ``op``."""


@dataclass(frozen=True)
class ServeAddress:
    """Where a serve endpoint lives: TCP ``host:port`` or a unix socket.

    ``port=0`` requests an ephemeral port (servers rebind it after
    listening).  ``path`` switches the endpoint to a unix-domain socket
    (``host``/``port`` are then ignored).

    Accepted everywhere an endpoint is named::

        ServeClient(ServeAddress("127.0.0.1", 7077))
        ServeClient(ServeAddress.parse("127.0.0.1:7077"))
        ServeClient(ServeAddress.parse("unix:/run/repro-serve.sock"))
        SimServer(address=ServeAddress(port=0))
    """

    host: str = "127.0.0.1"
    port: int = 0
    path: Optional[str] = None      # unix-domain socket path (overrides TCP)

    def __post_init__(self) -> None:
        if self.path is None and not (0 <= int(self.port) <= 65535):
            raise ValueError(f"port out of range: {self.port}")

    @property
    def is_unix(self) -> bool:
        return self.path is not None

    @classmethod
    def parse(cls, text: str) -> "ServeAddress":
        """``host:port``, ``:port``, ``host``, or ``unix:/path``."""
        text = text.strip()
        if text.startswith("unix:"):
            path = text[len("unix:"):]
            if not path:
                raise ValueError("unix: address needs a socket path")
            return cls(path=path)
        host, sep, port = text.rpartition(":")
        if not sep:
            return cls(host=text or "127.0.0.1")
        try:
            return cls(host=host or "127.0.0.1", port=int(port))
        except ValueError:
            raise ValueError(f"bad address {text!r}: port must be an integer "
                             f"(or use 'unix:/path')") from None

    def with_port(self, port: int) -> "ServeAddress":
        """The same address bound to a concrete port (post-listen)."""
        return ServeAddress(host=self.host, port=port, path=self.path)

    def __str__(self) -> str:
        if self.path is not None:
            return f"unix:{self.path}"
        return f"{self.host}:{self.port}"


def as_address(address: Any = None, *,
               default: Optional[ServeAddress] = None,
               caller: str = "this API") -> ServeAddress:
    """The :class:`ServeAddress` an ``address`` argument names: the
    address itself, a parseable ``"host:port"`` / ``"unix:/path"``
    string, or ``None`` for ``default`` (else the loopback ephemeral
    address)."""
    if address is None:
        return default or ServeAddress()
    if isinstance(address, ServeAddress):
        return address
    if isinstance(address, str):
        return ServeAddress.parse(address)
    raise TypeError(f"{caller}: expected a ServeAddress or a 'host:port' / "
                    f"'unix:/path' string, got {type(address).__name__}")


def version_error(got: Any) -> Dict[str, Any]:
    """The structured one-line reply to a version-mismatched request."""
    return {
        "status": STATUS_ERROR,
        "error": f"protocol version mismatch: server speaks v{VERSION}, "
                 f"request carried v={got!r}",
        "v": VERSION,
        "client_v": got,
    }


def check_version(msg: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The mismatch error for ``msg``, or ``None`` when compatible.

    A missing ``v`` is accepted (pre-versioning clients are v1)."""
    v = msg.get("v")
    if v is None or v == VERSION:
        return None
    return version_error(v)


def encode(obj: Dict[str, Any]) -> bytes:
    """One canonical-JSON line (sorted keys, compact separators)."""
    return (CANONICAL.encode(obj) + "\n").encode()


def decode(line: bytes) -> Dict[str, Any]:
    try:
        obj = json.loads(line)
    except ValueError as err:
        raise ProtocolError(f"bad JSON: {err}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    return obj
