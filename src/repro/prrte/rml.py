"""Runtime messaging layer (RML) between PRRTE daemons.

Carries out-of-band runtime traffic (fence contributions, group
construction, PGCID allocation, dmodex, event forwarding).  Delivery is
scheduled on the simulation engine with a cost of one server-to-server
software/wire hop plus serialized payload bytes over the inter-node
link.

Reliable mode (docs/recovery.md): when :meth:`RoutingLayer.
enable_reliability` has been called (``Cluster(recovery=True)``), every
data message carries a per-(src, dst) sequence number, the receiver
acks each arrival, unacked messages are retransmitted with exponential
backoff + deterministic jitter up to a bounded retry budget, duplicates
are suppressed, and delivery to the daemon's handler is strictly
in-sequence-order per link.  That last property is what makes the
channel FIFO *by construction* — a retransmission can never overtake
its delayed original, because the original has the lower sequence
number and the receiver holds back anything after a gap.  Disabled
(the default) the layer behaves exactly as before recovery existed, so
the fault-detection semantics of docs/faults.md are unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.machine.model import MachineModel
from repro.pmix.wire import wire_size
from repro.simtime.engine import Engine
from repro.simtime.trace import track_for_daemon

# Reserved dispatch tag for reliability acknowledgements.  Acks are
# unsequenced and never themselves acked: a lost ack only costs one
# redundant retransmission, which duplicate suppression absorbs.
ACK_TAG = "rml_ack"


@dataclass
class RmlMessage:
    src: int            # sending daemon's node id
    dst: int            # receiving daemon's node id
    tag: str            # dispatch tag, e.g. "grpcomm_up"
    payload: Dict[str, Any] = field(default_factory=dict)
    fid: int = 0        # observability flow id (send -> receive edge)
    seq: Optional[int] = None   # per-(src, dst) sequence (reliable mode)
    _size: Optional[int] = None    # cached wire_size (payload never mutates
                                   # after send, and retransmits resend as-is)

    def wire_size(self) -> int:
        """Approximate serialized size (64-byte envelope + payload)."""
        size = self._size
        if size is None:
            size = self._size = 64 + wire_size(self.payload)
        return size


class RoutingLayer:
    """Delivers :class:`RmlMessage`s between registered daemons.

    Each daemon is a single-threaded progress loop: its CPU serializes
    both outbound injections and inbound handling (``_busy``).  This is
    what makes a flat all-to-all exchange among many servers lose to
    the hierarchical pattern — without it every fan-in would be free.
    """

    def __init__(self, engine: Engine, machine: MachineModel) -> None:
        self.engine = engine
        self.machine = machine
        self._daemons: Dict[int, Callable[[RmlMessage], None]] = {}
        self._busy: Dict[int, float] = {}
        # One message's share of the progress loop (send or receive).
        self.process_cost = machine.server_msg_cost / 2
        self.messages_sent = 0
        self.bytes_sent = 0
        # Fault injection (wired by Cluster): messages to/from dead
        # daemons vanish; the plan may drop/delay/duplicate others.
        self.faults = None
        self.dropped = 0
        # Per-(src, dst) delivery floor: delay/dup faults must not
        # reorder a pair's messages — RML is a FIFO channel and the
        # grpcomm/event handlers rely on that.  In reliable mode the
        # sequence numbers enforce FIFO end-to-end regardless, but the
        # floor still keeps the *wire* arrival order sane.
        self._pair_floor: Dict[tuple, float] = {}
        # Cross-partition boundary (repro.dsim); None = single-process.
        # Messages to daemons owned by another partition are shipped as
        # (arrival, msg) envelopes after every sender-side effect has
        # run, and re-enter via _arrive in the owner partition.
        self.boundary = None
        # Reliability state (inert until enable_reliability()).
        self.reliable = False
        self._seed = 0
        self.retransmits = 0
        self.acks_sent = 0
        self.dup_suppressed = 0
        self.retry_exhausted = 0
        self._link_seq: Dict[Tuple[int, int], int] = {}
        # (src, dst, seq) -> [attempts, retransmit timer]
        self._unacked: Dict[Tuple[int, int, int], list] = {}
        self._recv_next: Dict[Tuple[int, int], int] = {}
        self._recv_buf: Dict[Tuple[int, int], Dict[int, RmlMessage]] = {}
        self._link_rng: Dict[Tuple[int, int], random.Random] = {}

    def register(self, node: int, deliver: Callable[[RmlMessage], None]) -> None:
        if node in self._daemons:
            raise ValueError(f"daemon already registered for node {node}")
        self._daemons[node] = deliver
        self._busy[node] = 0.0

    def enable_reliability(self, seed: int = 0) -> None:
        """Turn on sequencing, acks and retransmission (docs/recovery.md)."""
        self.reliable = True
        self._seed = seed

    def send(self, msg: RmlMessage) -> None:
        """Inject a message: occupies the sender, transits, then occupies
        the receiver before its handler runs."""
        deliver = self._daemons.get(msg.dst)
        if deliver is None:
            raise KeyError(f"no daemon registered for node {msg.dst}")
        if self.reliable and msg.tag != ACK_TAG and msg.seq is None:
            key = (msg.src, msg.dst)
            msg.seq = self._link_seq.get(key, 0)
            self._link_seq[key] = msg.seq + 1
            self._arm_retransmit(msg, deliver, attempts=0)
        self._transmit(msg, deliver)

    # -- reliability: sender side ------------------------------------------
    def _link_jitter(self, src: int, dst: int) -> random.Random:
        key = (src, dst)
        rng = self._link_rng.get(key)
        if rng is None:
            # String seeds hash deterministically (no PYTHONHASHSEED
            # dependence), so the jitter stream is a pure function of
            # (cluster seed, link).
            rng = self._link_rng[key] = random.Random(f"{self._seed}/{src}/{dst}")
        return rng

    def _arm_retransmit(self, msg: RmlMessage, deliver, attempts: int) -> None:
        m = self.machine
        rto = m.rml_rto * (m.rml_backoff ** attempts)
        # Jitter desynchronizes links that lost traffic simultaneously.
        rto += self._link_jitter(msg.src, msg.dst).uniform(0.0, 0.25 * rto)
        timer = self.engine.call_later(rto, lambda: self._retransmit(msg, deliver))
        self._unacked[(msg.src, msg.dst, msg.seq)] = [attempts, timer]

    def _retransmit(self, msg: RmlMessage, deliver) -> None:
        key = (msg.src, msg.dst, msg.seq)
        entry = self._unacked.get(key)
        if entry is None:
            return  # acked while this timer was in flight
        attempts = entry[0] + 1
        faults = self.faults
        if faults is not None and (
            not faults.daemon_alive(msg.src) or not faults.daemon_alive(msg.dst)
        ):
            # No point resending to (or from) the dead; daemon_down
            # healing owns recovery from here.
            del self._unacked[key]
            return
        tr = self.engine.tracer
        if attempts > self.machine.rml_max_retries:
            del self._unacked[key]
            self.retry_exhausted += 1
            if tr.enabled:
                tr.event(self.engine.now, track_for_daemon(msg.src),
                         "recovery.rml.retry_exhausted", dst=msg.dst,
                         tag=msg.tag, seq=msg.seq)
            return
        self.retransmits += 1
        if tr.enabled:
            tr.event(self.engine.now, track_for_daemon(msg.src),
                     "recovery.rml.retransmit", dst=msg.dst, tag=msg.tag,
                     seq=msg.seq, attempt=attempts)
        self._arm_retransmit(msg, deliver, attempts)
        self._transmit(msg, deliver)

    def _abandon(self, msg: RmlMessage) -> None:
        entry = self._unacked.pop((msg.src, msg.dst, msg.seq), None)
        if entry is not None:
            entry[1].cancel()

    def _handle_ack(self, ack: RmlMessage) -> None:
        # ack.src is the data receiver, ack.dst the original sender.
        entry = self._unacked.pop((ack.dst, ack.src, ack.payload["seq"]), None)
        if entry is not None:
            entry[1].cancel()

    # -- transmission (one attempt; fault hooks re-consulted each time) ----
    def _transmit(self, msg: RmlMessage, deliver) -> None:
        tr = self.engine.tracer
        if tr.enabled:
            msg.fid = tr.flow_begin(self.engine.now, track_for_daemon(msg.src),
                                    f"rml.{msg.tag}", nbytes=msg.wire_size())

        copies = 1
        extra_delay = 0.0
        faults = self.faults
        # ``active`` mirrors the ob1 fast path: with no plan installed and
        # no kills executed the whole fault block is one attribute check.
        if faults is not None and faults.active:
            if not faults.daemon_alive(msg.src) or not faults.daemon_alive(msg.dst):
                self.dropped += 1
                faults.dead_drop("rml", msg.src, msg.dst, fid=msg.fid)
                if self.reliable and msg.seq is not None:
                    self._abandon(msg)
                return
            disp = faults.on_message("rml", msg.src, msg.dst, msg.tag, fid=msg.fid)
            if disp is not None:
                if disp.drop:
                    self.dropped += 1
                    return
                extra_delay = disp.extra_delay
                copies += disp.duplicates

        nbytes = msg.wire_size()
        self.messages_sent += 1
        self.bytes_sent += nbytes

        start = max(self.engine.now, self._busy[msg.src])
        injected = start + self.process_cost
        self._busy[msg.src] = injected
        if msg.src == msg.dst:
            transit = self.machine.local_rpc_cost
        else:
            transit = (
                self.machine.server_msg_cost / 2
                + nbytes / self.machine.inter_node_bandwidth
            )
        arrival = injected + transit + extra_delay
        # The floor only engages once faults are active, keeping
        # fault-free timing identical to the pre-fault code path.
        if faults is not None and faults.active:
            key = (msg.src, msg.dst)
            arrival = max(arrival, self._pair_floor.get(key, 0.0))
            self._pair_floor[key] = arrival
        boundary = self.boundary
        if boundary is not None and not boundary.owns_node(msg.dst):
            boundary.ship_rml(arrival, msg, copies)
            return
        arrive = partial(self._arrive, msg, deliver)
        if copies == 1:
            self.engine.post_at(arrival, arrive)
        else:
            # Fault-injected duplicates are the one genuinely same-instant
            # fan-out in the stack: every copy arrives at the same time, so
            # the whole burst collapses into one scheduled delivery on the
            # fast path (the compat reference keeps one heap entry per copy).
            self.engine.call_at_batch(arrival, [arrive] * copies)

    def _arrive(self, msg: RmlMessage, deliver: Callable[[RmlMessage], None]) -> None:
        # Booking happens at arrival time so deliveries from different
        # senders serialize in true arrival order.
        start = max(self.engine.now, self._busy[msg.dst])
        done = start + self.process_cost
        self._busy[msg.dst] = done
        self.engine.post_at(done, partial(self._deliver, msg, deliver))

    def _deliver(self, msg: RmlMessage, deliver: Callable[[RmlMessage], None]) -> None:
        if msg.fid:
            # Duplicated copies share one flow id; the first arrival binds it.
            self.engine.tracer.flow_end(
                self.engine.now, track_for_daemon(msg.dst), msg.fid
            )
        if self.reliable:
            if msg.tag == ACK_TAG:
                self._handle_ack(msg)
                return
            if msg.seq is not None:
                self._sequenced_deliver(msg, deliver)
                return
        deliver(msg)

    # -- reliability: receiver side ----------------------------------------
    def _send_ack(self, msg: RmlMessage) -> None:
        self.acks_sent += 1
        self.send(RmlMessage(src=msg.dst, dst=msg.src, tag=ACK_TAG,
                             payload={"seq": msg.seq}))

    def _sequenced_deliver(self, msg: RmlMessage, deliver) -> None:
        """Selective-ack, in-order handoff: every arrival (including
        duplicates) is acked; the daemon's handler only ever sees each
        sequence number once, in order."""
        key = (msg.src, msg.dst)
        self._send_ack(msg)
        expected = self._recv_next.get(key, 0)
        if msg.seq < expected:
            self.dup_suppressed += 1
            return
        buf = self._recv_buf.setdefault(key, {})
        if msg.seq > expected:
            if msg.seq in buf:
                self.dup_suppressed += 1
            else:
                buf[msg.seq] = msg
            return
        self._recv_next[key] = expected + 1
        deliver(msg)
        nxt = expected + 1
        while nxt in buf:
            queued = buf.pop(nxt)
            self._recv_next[key] = nxt + 1
            deliver(queued)
            nxt += 1
