"""Wire sizing: how many bytes a runtime payload occupies on the wire.

Simulated time depends on these numbers (an RML hop costs ``nbytes /
bandwidth``), so there is exactly one definition — :func:`wire_size` —
shared by :meth:`repro.prrte.rml.RmlMessage.wire_size`,
:meth:`repro.pmix.datastore.Datastore.size_estimate` and
:class:`SizedDict`, the payload that is sized where it is built instead
of re-walked by every message that carries it.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple

from repro.pmix.types import ABORTED_MARKER


#: Exact classes that are one 8-byte word on the wire.
_WORD = frozenset((int, float, bool, type(None)))


def wire_size(value: Any) -> int:
    """Approximate wire size of ``value`` in bytes (a container sizes its
    ``str`` and scalar members in its own loop, without a call)."""
    if value.__class__ is SizedDict:
        return value.nbytes
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        n = 8
        for v in value:
            cls = v.__class__
            n += len(v) if cls is str else 8 if cls in _WORD else wire_size(v)
        return n
    if isinstance(value, dict):
        return _entries_size(value)
    return 8


def _entries_size(entries: dict) -> int:
    n = 8
    for k, v in entries.items():
        cls = v.__class__
        n += len(str(k)) + (len(v) if cls is str else 8 if cls in _WORD
                            else wire_size(v))
    return n


class SizedDict(dict):
    """A payload dict that knows its :func:`wire_size` and which of its
    entries are aborted markers (a dead participant's stand-in).

    ``nbytes`` and ``aborted`` are computed once, by the constructor;
    :meth:`union` adds up those of its parts instead of walking them
    again.  Frozen by convention once built (a payload never changes
    after it is sent): build a new one rather than assigning into it.
    """

    __slots__ = ("nbytes", "aborted")

    def __init__(self, *args, **kwargs) -> None:
        dict.__init__(self, *args, **kwargs)
        self.nbytes = _entries_size(self)
        self.aborted = _aborted_keys(self)

    @classmethod
    def of(cls, payload: dict) -> "SizedDict":
        """``payload`` itself if already sized, else a sized copy."""
        return payload if payload.__class__ is cls else cls(payload)

    @classmethod
    def union(cls, parts: Iterable[dict]) -> "SizedDict":
        """The parts merged left to right (later parts win, as
        ``dict.update``).  Parts with disjoint keys — every fault-free
        exchange — cost one addition each; an overridden key (an aborted
        marker standing in for a blob) falls back to a recount."""
        out = cls.__new__(cls)
        nbytes, entries, aborted = 8, 0, ()
        for part in parts:
            part = cls.of(part)
            dict.update(out, part)
            nbytes += part.nbytes - 8
            entries += len(part)
            aborted += part.aborted
        if len(out) == entries:
            out.nbytes, out.aborted = nbytes, aborted
        else:
            out.nbytes, out.aborted = _entries_size(out), _aborted_keys(out)
        return out


def _aborted_keys(entries: dict) -> Tuple:
    return tuple(k for k, v in entries.items()
                 if v.__class__ is str and v == ABORTED_MARKER)
