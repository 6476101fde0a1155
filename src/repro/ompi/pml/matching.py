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


class PostedRecv:
    """A receive waiting for a message."""

    __slots__ = ("src", "tag", "request", "cb")

    def __init__(self, src: int, tag: int, request: Any, cb: Any = None) -> None:
        self.src = src
        self.tag = tag
        self.request = request         # ompi Request
        self.cb = cb                   # protocol callback on match


class IncomingMsg:
    """An arrived message (or rendezvous RTS) awaiting a receive."""

    __slots__ = ("src", "tag", "seq", "nbytes", "payload", "protocol",
                 "sender", "sender_req", "extended", "arrival")

    def __init__(self, src: int, tag: int, seq: int, nbytes: int,
                 payload: Any = None, protocol: str = "eager",
                 sender: Any = None, sender_req: Any = None,
                 extended: bool = False, arrival: float = 0.0) -> None:
        self.src = src
        self.tag = tag
        self.seq = seq
        self.nbytes = nbytes           # user payload bytes
        self.payload = payload
        self.protocol = protocol       # "eager" | "rts"
        self.sender = sender           # sender proc id (for CTS routing)
        self.sender_req = sender_req   # sender-side request (rendezvous)
        self.extended = extended       # carried an extended header
        self.arrival = arrival


def _compatible(posted: PostedRecv, msg: IncomingMsg) -> bool:
    if posted.src != ANY_SOURCE and posted.src != msg.src:
        return False
    if posted.tag == ANY_TAG:
        return msg.tag >= 0
    return posted.tag == msg.tag


class _CommQueues:
    """Both queues are short and matched from the head; a list costs an
    idle communicator 56 bytes where a deque holds a 760-byte block."""

    __slots__ = ("posted", "unexpected")

    def __init__(self) -> None:
        self.posted: List[PostedRecv] = []
        self.unexpected: List[IncomingMsg] = []


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

    def post_recv(self, cid: int, posted: PostedRecv) -> Optional[IncomingMsg]:
        """Post a receive; returns the matched unexpected message if any
        (already removed from the queue), else enqueues the receive."""
        # _queues() inlined here and in incoming(): once per message.
        q = self._by_cid.get(cid)
        if q is None:
            q = self._by_cid[cid] = _CommQueues()
        unexpected = q.unexpected
        for i, msg in enumerate(unexpected):
            if _compatible(posted, msg):
                del unexpected[i]
                self.matches += 1
                self.unexpected_hits += 1
                return msg
        q.posted.append(posted)
        return None

    def incoming(self, cid: int, msg: IncomingMsg) -> Optional[PostedRecv]:
        """An arriving message; returns the matched posted receive if any
        (already removed), else enqueues as unexpected."""
        q = self._by_cid.get(cid)
        if q is None:
            q = self._by_cid[cid] = _CommQueues()
        waiting = q.posted
        for i, posted in enumerate(waiting):
            if _compatible(posted, msg):
                del waiting[i]
                self.matches += 1
                return posted
        q.unexpected.append(msg)
        return None

    def probe(self, cid: int, src: int, tag: int) -> Optional[IncomingMsg]:
        """Non-destructive search of the unexpected queue (MPI_Iprobe)."""
        fake = PostedRecv(src=src, tag=tag, request=None)
        for msg in self._queues(cid).unexpected:
            if _compatible(fake, msg):
                return msg
        return None

    def mprobe(self, cid: int, src: int, tag: int) -> Optional[IncomingMsg]:
        """Matched probe (MPI_Improbe): REMOVE and return the earliest
        compatible unexpected message.  Once removed, no other receive
        can steal it — the thread-safe claim MPI-3 added mprobe for."""
        q = self._queues(cid)
        fake = PostedRecv(src=src, tag=tag, request=None)
        for i, msg in enumerate(q.unexpected):
            if _compatible(fake, msg):
                del q.unexpected[i]
                self.matches += 1
                self.unexpected_hits += 1
                return msg
        return None

    def cancel_posted(self, cid: int) -> List[PostedRecv]:
        """Remove and return every posted receive for ``cid`` (peer
        failure: the communicator fails them with MPI_ERR_PROC_FAILED)."""
        q = self._by_cid.get(cid)
        if q is None:
            return []
        cancelled = list(q.posted)
        q.posted.clear()
        return cancelled

    def remove_posted(self, cid: int, posted: PostedRecv) -> bool:
        """Un-post one receive (it is being failed instead of matched)."""
        q = self._by_cid.get(cid)
        if q is None:
            return False
        try:
            q.posted.remove(posted)
            return True
        except ValueError:
            return False

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
