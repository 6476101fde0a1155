"""Tag-matching engine: posted-receive and unexpected-message queues.

One engine per process; queues are segregated by the *receiver-local*
communicator id (the ctx field of the match header — constant-time
array-index semantics, like Open MPI's communicator array).

MPI matching rules implemented here:

* a receive matches the earliest compatible unexpected message
  (arrival order), and an arriving message matches the earliest
  compatible posted receive (post order) — non-overtaking;
* ``ANY_SOURCE`` matches any source, ``ANY_TAG`` matches any
  *user* tag (>= 0) but never the negative internal collective tags.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.ompi.constants import ANY_SOURCE, ANY_TAG

# The engine is duck-typed: a *posted receive* and an *arrived message*
# are any objects with ``src`` and ``tag`` (ob1 queues the receive's
# Request and the arrived Packet themselves).  The compatibility rule,
# written out in each search loop below (once per queued entry):
#
#     (posted.src == ANY_SOURCE or posted.src == msg.src) and
#     (msg.tag >= 0 if posted.tag == ANY_TAG else posted.tag == msg.tag)


class _CommQueues:
    """Both queues are short and matched from the head; a list costs an
    idle communicator 56 bytes where a deque holds a 760-byte block."""

    __slots__ = ("posted", "unexpected")

    def __init__(self) -> None:
        self.posted: List[Any] = []
        self.unexpected: List[Any] = []


class MatchingEngine:
    """All matching state for one process."""

    __slots__ = ("_by_cid", "matches", "unexpected_hits")

    def __init__(self) -> None:
        self._by_cid: Dict[int, _CommQueues] = {}
        self.matches = 0
        self.unexpected_hits = 0

    def _queues(self, cid: int) -> _CommQueues:
        q = self._by_cid.get(cid)
        if q is None:
            q = _CommQueues()
            self._by_cid[cid] = q
        return q

    def post_recv(self, cid: int, posted: Any) -> Optional[Any]:
        """Post a receive; returns the matched unexpected message if any
        (already removed from the queue), else enqueues the receive."""
        # _queues() inlined here and in incoming(): once per message.
        q = self._by_cid.get(cid)
        if q is None:
            q = self._by_cid[cid] = _CommQueues()
        unexpected = q.unexpected
        src, tag = posted.src, posted.tag
        for i, msg in enumerate(unexpected):
            if src == msg.src or src == ANY_SOURCE:
                if (msg.tag >= 0 if tag == ANY_TAG else tag == msg.tag):
                    del unexpected[i]
                    self.matches += 1
                    self.unexpected_hits += 1
                    return msg
        q.posted.append(posted)
        return None

    def incoming(self, cid: int, msg: Any) -> Optional[Any]:
        """An arriving message; returns the matched posted receive if any
        (already removed), else enqueues as unexpected."""
        q = self._by_cid.get(cid)
        if q is None:
            q = self._by_cid[cid] = _CommQueues()
        waiting = q.posted
        src, tag = msg.src, msg.tag
        for i, posted in enumerate(waiting):
            want = posted.src
            if want == src or want == ANY_SOURCE:
                want = posted.tag
                if (tag >= 0 if want == ANY_TAG else want == tag):
                    del waiting[i]
                    self.matches += 1
                    return posted
        q.unexpected.append(msg)
        return None

    def probe(self, cid: int, src: int, tag: int) -> Optional[Any]:
        """Non-destructive search of the unexpected queue (MPI_Iprobe):
        the earliest message a receive of ``(src, tag)`` would match."""
        for msg in self._queues(cid).unexpected:
            if src == msg.src or src == ANY_SOURCE:
                if (msg.tag >= 0 if tag == ANY_TAG else tag == msg.tag):
                    return msg
        return None

    def mprobe(self, cid: int, src: int, tag: int) -> Optional[Any]:
        """Matched probe (MPI_Improbe): REMOVE and return the earliest
        compatible unexpected message.  Once removed, no other receive
        can steal it — the thread-safe claim MPI-3 added mprobe for."""
        msg = self.probe(cid, src, tag)
        if msg is not None:
            self._queues(cid).unexpected.remove(msg)
            self.matches += 1
            self.unexpected_hits += 1
        return msg

    def cancel_posted(self, cid: int) -> List[Any]:
        """Remove and return every posted receive for ``cid`` (peer
        failure: the communicator fails them with MPI_ERR_PROC_FAILED)."""
        q = self._by_cid.get(cid)
        if q is None:
            return []
        cancelled = list(q.posted)
        q.posted.clear()
        return cancelled

    def pending_posted(self, cid: int) -> int:
        return len(self._queues(cid).posted)

    def pending_unexpected(self, cid: int) -> int:
        return len(self._queues(cid).unexpected)

    def drop_comm(self, cid: int) -> None:
        """Forget queues for a freed communicator (must be empty)."""
        q = self._by_cid.pop(cid, None)
        if q and (q.posted or q.unexpected):
            from repro.ompi.errors import MPIErrPending

            raise MPIErrPending(
                f"communicator freed with {len(q.posted)} posted / "
                f"{len(q.unexpected)} unexpected messages (cid {cid})"
            )
