"""The ob1 PML: eager/rendezvous point-to-point with exCID support.

Protocol summary (paper §III-B4):

* Every user message carries the 14-byte match header.  On a
  communicator with an exCID, the sender does not initially know the
  receiver's local CID, so it prepends a ~20-byte extended header
  carrying the full exCID and the sender's local CID.
* The receiver resolves the exCID to its local communicator (hash
  lookup — costed separately from the fast array-index match), stores
  the sender's CID, and sends back an ACK with its own local CID.
* Once the ACK arrives, the sender switches to the compact header whose
  ctx field is the *receiver's* CID: matching is again a constant-time
  array index.  Messages already in flight keep the extended header.
* Messages above the eager limit use rendezvous: an RTS header travels
  first; the receiver answers CTS when matched; the bulk data follows.

Cost accounting:

* the sender's NIC serializes injections (``nic_free`` timestamp) —
  this bounds message rate;
* the receiver's matching path serializes completions
  (``match_busy`` timestamp) — extended-header messages pay an extra
  exCID-resolution cost, which is what Fig 5c measures.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Container, Dict, List, Optional, Tuple

from repro.ompi.btl.net import NetworkBTL
from repro.ompi.btl.sm import SharedMemoryBTL
from repro.ompi.errors import MPIErrIntern, MPIErrProcFailed
from repro.ompi.pml.headers import EXTENDED_HEADER_BYTES, MATCH_HEADER_BYTES
from repro.ompi.pml.matching import MatchingEngine
from repro.ompi.status import Status
from repro.pmix.types import PmixProc
from repro.simtime.process import Sleep, Wait

ENDPOINT_KEY = "ompi.ep"          # modex key holding a rank's endpoint blob
FIRST_PEER_SETUP = 1.0e-6         # one-time add_procs cost per new peer


class Packet:
    """One fabric packet — and, once a user packet has arrived, the
    message itself: :meth:`Ob1Endpoint.deliver_user` writes the header's
    ``src``/``tag`` onto it and hands *it* to the matching engine, so an
    unexpected message is the packet that carried it.

    ``hdr``/``ext`` are the plain tuples ``(ctx, src, tag, seq)`` and
    ``(excid_key, sender_cid)`` built in :meth:`Ob1Endpoint.start_send`
    (:mod:`repro.ompi.pml.headers` sizes them on the wire).
    ``sender_req``/``recv_req`` are the two ends'
    :class:`~repro.ompi.request.Request` objects — each its own
    completion event — riding the rendezvous round trip.
    """

    __slots__ = ("kind", "src_proc", "hdr", "ext", "payload", "nbytes",
                 "protocol", "sender_req", "recv_req", "ack_excid",
                 "ack_cid", "fid", "_rts_payload", "wire", "src", "tag")

    def __init__(self, kind: str, src_proc: PmixProc, hdr: Any = None,
                 ext: Any = None, payload: Any = None, nbytes: int = 0,
                 protocol: str = "eager", sender_req: Any = None,
                 recv_req: Any = None, ack_excid: Any = None,
                 ack_cid: int = 0, fid: int = 0) -> None:
        self.kind = kind              # "user" | "ack" | "cts" | "data"
        self.src_proc = src_proc
        self.hdr = hdr
        self.ext = ext
        self.payload = payload
        self.nbytes = nbytes          # user payload bytes
        self.protocol = protocol      # for kind="user": "eager" | "rts"
        self.sender_req = sender_req
        self.recv_req = recv_req
        self.ack_excid = ack_excid
        self.ack_cid = ack_cid
        self.fid = fid                # observability flow id (send -> recv)
        self._rts_payload = None      # rendezvous payload (off-wire stash)
        if kind == "user":
            wire = MATCH_HEADER_BYTES
            if ext is not None:
                wire += EXTENDED_HEADER_BYTES
            if protocol == "eager":
                wire += nbytes
        elif kind == "data":
            wire = 8 + nbytes
        else:
            wire = 18  # control packets: ACK / CTS
        self.wire = wire              # bytes on the wire


class Fabric:
    """Routes packets between endpoints with modeled delays."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.machine = cluster.machine
        self.faults = getattr(cluster, "faults", None)
        self._endpoints: Dict[PmixProc, "Ob1Endpoint"] = {}
        # The BTLs are stateless cost models of the machine: one pair
        # serves every endpoint of the world.
        self.btl_sm = SharedMemoryBTL(self.machine)
        self.btl_net = NetworkBTL(self.machine)
        self.packets = 0
        self.bytes = 0
        # Cross-partition boundary (repro.dsim); None = single-process.
        # When set, packets whose destination rank lives in another
        # partition are shipped as serialized envelopes instead of being
        # scheduled locally — every sender-side effect above the
        # scheduling point (fault checks, counters, NIC booking) has
        # already happened by then, so counter sums across partitions
        # equal the single-process values.
        self.boundary = None
        # FIFO floor per (src, dst): delay/dup faults must not reorder a
        # pair's packets (the seq check would flag it as corruption).
        self._pair_floor: Dict[tuple, float] = {}

    def register(self, proc: PmixProc, endpoint: "Ob1Endpoint") -> None:
        self._endpoints[proc] = endpoint

    def deregister(self, proc: PmixProc) -> None:
        self._endpoints.pop(proc, None)

    def endpoint(self, proc: PmixProc) -> "Ob1Endpoint":
        ep = self._endpoints.get(proc)
        if ep is None:
            raise MPIErrIntern(f"no endpoint registered for {proc}")
        return ep

    def deliver_at(self, when: float, dst: PmixProc, pkt: Packet) -> None:
        copies = 1
        faults = self.faults
        if faults is not None and faults.active:
            dead = faults.dead_procs
            if dst in dead or pkt.src_proc in dead:
                faults.dead_drop("pml", pkt.src_proc, dst, fid=pkt.fid)
                return
            tag = pkt.kind if pkt.hdr is None else pkt.hdr[2]
            disp = faults.on_message("pml", pkt.src_proc, dst, tag, fid=pkt.fid)
            if disp is not None:
                if disp.drop:
                    return
                when += disp.extra_delay
                copies += disp.duplicates
            key = (pkt.src_proc, dst)
            when = max(when, self._pair_floor.get(key, 0.0))
            self._pair_floor[key] = when
        self.packets += 1
        self.bytes += pkt.wire
        boundary = self.boundary
        if boundary is not None and not boundary.owns_proc(dst):
            boundary.ship_pml(when, dst, pkt, copies)
            return
        ep = self._endpoints.get(dst) or self.endpoint(dst)   # raises if none
        # One arrival is one callback: Ob1Endpoint.deliver re-checks
        # liveness itself (repro.dsim injects the same callable).
        arrive = partial(ep.deliver, pkt)
        for _ in range(copies):
            self.engine.post_at(when, arrive)


class _Peer:
    """Everything an endpoint keeps about one peer process."""

    __slots__ = ("proc", "known", "btl", "send_seq", "recv_seq")

    def __init__(self, proc: PmixProc, known: bool) -> None:
        self.proc = proc
        self.known = known     # add_procs done (lazy discovery, §III-B1)
        self.btl = None        # chosen at the first injection
        # Ordering sequences per communicator, keyed on its global
        # identity (not the local CID) so both ends agree; early-packet
        # stash/replay preserves order within a communicator, which is
        # exactly MPI's guarantee.  Created on first use: most peers a
        # rank learns about at init never exchange a message with it.
        self.send_seq: Optional[Dict[str, int]] = None
        self.recv_seq: Optional[Dict[str, int]] = None


class Ob1Endpoint:
    """Per-process PML state."""

    __slots__ = ("runtime", "proc", "node", "engine", "machine", "fabric",
                 "matching", "nic_free", "match_busy", "_peers", "_added",
                 "_pending", "_prune_at", "stats")

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.proc: PmixProc = runtime.proc
        self.node: int = runtime.node
        self.engine = runtime.engine
        self.machine = runtime.machine
        self.fabric: Fabric = runtime.fabric
        self.matching = MatchingEngine()
        self.nic_free = 0.0
        self.match_busy = 0.0
        self._peers: Dict[PmixProc, _Peer] = {}
        self._added: Container[PmixProc] = ()     # see add_procs()
        # In-flight requests whose completion depends on a peer: rendezvous
        # sends awaiting CTS, and matched rendezvous receives awaiting data.
        # Entries are (comm_identity, peer, request); peer_failed()/
        # comm_failed() fail them with MPI_ERR_PROC_FAILED instead of
        # letting the rank hang forever.
        self._pending: List[Tuple[Any, PmixProc, Any]] = []
        self._prune_at = 64       # see _track_pending()
        self.stats = {"sent": 0, "recv": 0, "ext_sent": 0, "ext_recv": 0,
                      "acks": 0, "dup_dropped": 0}
        self.fabric.register(self.proc, self)

    def harvest_metrics(self, m, force: bool = False) -> None:
        """Fold this endpoint's counters into a metrics registry.

        Called on PML teardown (the endpoint object is dropped at
        finalize) and by end-of-run snapshots for still-live endpoints.
        """
        for stat, v in sorted(self.stats.items()):
            if v:
                m.inc(f"pml.{stat}", v, force=force, node=self.node)
        if self.matching.matches:
            m.inc("pml.matches", self.matching.matches, force=force,
                  node=self.node)
        if self.matching.unexpected_hits:
            m.inc("pml.unexpected_hits", self.matching.unexpected_hits,
                  force=force, node=self.node)

    # ------------------------------------------------------------------
    # peers (lazy add_procs, paper §III-B1)
    # ------------------------------------------------------------------
    def add_procs(self, procs: Container[PmixProc]) -> None:
        """Endpoint setup done ahead of first contact (MPI_Init's
        node-local add_procs): ``procs`` need no discovery.  The
        container is kept by reference — a world-shared ``ProcSet``
        costs this rank nothing — and seeds ``known`` when a record is
        created."""
        self._added = procs
        for peer in self._peers.values():
            if peer.proc in procs:
                peer.known = True

    def peer(self, proc: PmixProc) -> _Peer:
        """The record for ``proc`` (created on first contact)."""
        peer = self._peers.get(proc)
        if peer is None:
            peer = self._peers[proc] = _Peer(proc, proc in self._added)
        return peer

    def send_peer(self, comm, dest_rank: int) -> _Peer:
        """Resolve the destination of a send; a dead one raises
        :class:`MPIErrProcFailed`.  Callers run :meth:`discover` for a
        peer not yet ``known``, then :meth:`start_send`.

        The communicator remembers the record per destination rank
        (``comm._send_peers``).  Only a resolved rank is remembered, so
        a rank out of range takes the checked path — and raises
        :class:`MPIErrRank` — every time; liveness is checked on every
        send."""
        peers = comm._send_peers
        peer = peers.get(dest_rank) if peers is not None else None
        if peer is None:
            peer = self.peer(comm.group.proc(dest_rank))
            if peers is None:
                peers = comm._send_peers = {}
            peers[dest_rank] = peer
        faults = self.fabric.faults
        # An empty set answers without hashing the proc (a Python call).
        if faults is not None and faults.dead_procs \
                and peer.proc in faults.dead_procs:
            raise MPIErrProcFailed(f"{comm.name}: send to failed peer rank {dest_rank}")
        return peer

    def discover(self, peer: _Peer):
        """Sub-generator: one-time endpoint setup for a new peer."""
        yield Sleep(FIRST_PEER_SETUP)
        server = self.runtime.pmix.server
        found, _ = server.datastore.get(peer.proc, ENDPOINT_KEY)
        if not found and server.node_of(peer.proc) != self.node:
            # Sessions path: endpoint info was never fenced; direct modex.
            yield Sleep(self.machine.local_rpc_cost)
            ev = server.request_remote(peer.proc, ENDPOINT_KEY)
            yield Wait(ev)
        peer.known = True

    def _peer_dead(self, proc: PmixProc) -> bool:
        faults = self.fabric.faults
        # An empty set answers without hashing ``proc`` (a Python call).
        return faults is not None and bool(faults.dead_procs) \
            and proc in faults.dead_procs

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def _inject(self, peer: _Peer, pkt: Packet) -> float:
        """Reserve the NIC and hand ``pkt`` to the fabric; returns the
        time the injection is done."""
        btl = peer.btl
        if btl is None:
            peer_node = self.runtime.pmix.server.node_of(peer.proc)
            fabric = self.fabric
            btl = peer.btl = fabric.btl_sm if peer_node == self.node else fabric.btl_net
        engine = self.engine
        now = engine.now
        tr = engine.tracer
        if tr.enabled:
            pkt.fid = tr.flow_begin(now, self.runtime.obs_track, f"pml.{pkt.kind}",
                                    nbytes=pkt.nbytes)
        wire = pkt.wire
        nic_free = self.nic_free
        start = now if now > nic_free else nic_free
        injection, flight = btl.times(wire)
        done = start + injection
        self.nic_free = done
        self.fabric.deliver_at(done + flight, peer.proc, pkt)
        return done

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    def _track_pending(self, comm, peer: PmixProc, request) -> None:
        pending = self._pending
        if len(pending) >= self._prune_at:
            # Drop completed entries once the list has doubled since the
            # last prune: amortized O(1) however deep the window.
            pending[:] = [e for e in pending if not e[2].triggered]
            self._prune_at = max(64, 2 * len(pending))
        pending.append((comm._identity, peer, request))

    def peer_failed(self, peer: PmixProc) -> None:
        """Fail in-flight requests that can only complete via ``peer``."""
        keep = []
        for ident, p, req in self._pending:
            if req.triggered:
                continue
            if p == peer:
                req.fail(MPIErrProcFailed(f"peer {peer} failed"))
            else:
                keep.append((ident, p, req))
        self._pending = keep

    def comm_failed(self, comm) -> None:
        """Fail in-flight requests on a damaged communicator."""
        ident = comm.identity()
        keep = []
        for cid, p, req in self._pending:
            if req.triggered:
                continue
            if cid == ident:
                req.fail(MPIErrProcFailed(f"{comm.name}: peer failure on communicator"))
            else:
                keep.append((cid, p, req))
        self._pending = keep

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def start_send(self, comm, payload, dest_rank: int, tag: int, nbytes: int,
                   request, peer: _Peer) -> float:
        """The one send start: header decision, sequence, packet, stats,
        NIC reservation and fabric handoff, eager and rendezvous alike.

        ``peer`` comes from :meth:`send_peer` and is ``known``.  Returns
        the sender-side busy time (injection done - now): the caller
        charges it with ``Sleep(busy)`` when positive and only then
        treats an eager send as complete (buffered/injected) — completing
        ``request`` if it made one; a blocking eager send needs none and
        passes ``None``.  A rendezvous send (``nbytes`` above the eager
        limit) must pass a request: it rides the RTS to the receiver and
        completes when the data has been injected after CTS.
        """
        ext = None
        ctx = cid = comm.local_cid
        excid_state = comm.excid_state
        if excid_state is not None:
            peer_cid = comm.peer_cids.get(dest_rank)
            if peer_cid is not None and not self.runtime.config.excid_always_extended:
                ctx = peer_cid
            else:
                ext = (excid_state.excid.key(), cid)
        seqs = peer.send_seq
        if seqs is None:
            seqs = peer.send_seq = {}
        ident = comm._identity
        seq = seqs.get(ident, 0)
        seqs[ident] = seq + 1
        hdr = (ctx, comm.rank, tag, seq)
        if nbytes <= self.machine.eager_limit:
            pkt = Packet("user", self.proc, hdr, ext, payload, nbytes)
        else:
            # RTS: only headers travel now; the payload is handed over in
            # the data phase after CTS (stashed on the packet object — its
            # wire size deliberately excludes it).
            pkt = Packet("user", self.proc, hdr, ext, None, nbytes, "rts", request)
            pkt._rts_payload = payload
            self._track_pending(comm, peer.proc, request)
        self.stats["sent"] += 1
        if ext is not None:
            self.stats["ext_sent"] += 1
            tr = self.engine.tracer
            if tr.enabled:
                tr.event(self.engine.now, "events:pml", "pml.ext_send",
                         dst=str(peer.proc), tag=tag)
        return self._inject(peer, pkt) - self.engine.now

    def isend(self, comm, payload, dest_rank: int, tag: int, nbytes: int, request):
        """Sub-generator (only because peer discovery yields): start a
        send; the caller's process is occupied for the injection time
        (MPI_Isend CPU cost)."""
        peer = self.send_peer(comm, dest_rank)
        if not peer.known:
            yield from self.discover(peer)
        busy = self.start_send(comm, payload, dest_rank, tag, nbytes, request, peer)
        if busy > 0:
            yield Sleep(busy)
        if nbytes <= self.machine.eager_limit:
            # Eager sends complete locally once the data is buffered/injected.
            request.complete(Status(comm.rank, tag, nbytes))
        return request

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def irecv(self, comm, request) -> bool:
        """Post ``request`` — it names the ``src``/``tag`` it matches —
        as a receive (instantaneous bookkeeping).

        Returns True when the receive matched an already-arrived message
        (its completion is in flight and no longer cancellable)."""
        pkt = self.matching.post_recv(comm.local_cid, request)
        m = self.engine.metrics
        if m is not None and m.enabled:
            q = self.matching._queues(comm.local_cid)
            m.observe("pml.match.posted_depth", len(q.posted), node=self.node)
            m.observe("pml.match.unexpected_depth", len(q.unexpected),
                      node=self.node)
        if pkt is not None:
            self._consume_match(comm, request, pkt)
            return True
        return False

    def probe(self, comm, src_rank: int, tag: int) -> Optional[Status]:
        msg = self.matching.probe(comm.local_cid, src_rank, tag)
        if msg is None:
            return None
        return Status(source=msg.src, tag=msg.tag, count=msg.nbytes)

    # ------------------------------------------------------------------
    # delivery (engine callback context — not a simulated process)
    # ------------------------------------------------------------------
    def deliver(self, pkt: Packet) -> None:
        """One packet arrives (the callback ``Fabric.deliver_at`` posts)."""
        # Liveness is re-checked at delivery time: the destination (or
        # the sender) may have died while the packet was in flight.
        faults = self.fabric.faults
        if faults is not None and faults.active and (
            self.proc in faults.dead_procs or pkt.src_proc in faults.dead_procs
        ):
            faults.dead_drop("pml", pkt.src_proc, self.proc, fid=pkt.fid)
            return
        if pkt.fid:
            # Duplicated packets share one flow id; first arrival binds it.
            engine = self.engine
            engine.tracer.flow_end(engine.now, self.runtime.obs_track, pkt.fid)
        kind = pkt.kind
        if kind == "user":
            self.deliver_user(pkt)
        elif kind == "ack":
            self._deliver_ack(pkt)
        elif kind == "cts":
            self._deliver_cts(pkt)
        elif kind == "data":
            self._deliver_data(pkt)
        else:  # pragma: no cover
            raise MPIErrIntern(f"unknown packet kind {kind}")

    def deliver_user(self, pkt: Packet) -> None:
        """Match one arrived user message (also the replay entry for
        packets stashed before their communicator was registered)."""
        ctx, src, tag, seq = pkt.hdr
        ext = pkt.ext
        # Resolve the target communicator first: a packet may arrive
        # before this process finished registering the communicator
        # (constructor collectives release ranks at different times).
        # Stash such packets with NO state mutation — they are replayed
        # verbatim at registration.
        if ext is not None:
            excid_key, sender_cid = ext
            comm = self.runtime.comm_by_excid(excid_key)
            if comm is None:
                self.runtime.stash_early_packet(excid_key, pkt)
                return
        else:
            comms = self.runtime.cid_table.comms
            comm = comms[ctx] if 0 <= ctx < len(comms) else None
            if comm is None:
                self.runtime.stash_early_cid_packet(ctx, pkt)
                return

        self.stats["recv"] += 1
        sender = pkt.src_proc
        peer = self._peers.get(sender) or self.peer(sender)
        seqs = peer.recv_seq
        if seqs is None:
            seqs = peer.recv_seq = {}
        ident = comm._identity
        expected = seqs.get(ident, 0)
        if seq < expected:
            # Duplicate delivery (dup_msg fault): already consumed.
            self.stats["dup_dropped"] += 1
            return
        if seq != expected:
            raise MPIErrIntern(
                f"out-of-order delivery from {sender} on {ident}: "
                f"seq {seq} != expected {expected}"
            )
        seqs[ident] = expected + 1

        match_cost = self.machine.match_overhead
        if ext is not None:
            self.stats["ext_recv"] += 1
            match_cost += self.machine.extended_match_overhead
            # Learn the sender's CID; reply with ours exactly once.
            if src not in comm.peer_cids:
                comm.peer_cids[src] = sender_cid
            if src not in comm.acks_sent:
                if not comm.acks_sent:
                    comm.acks_sent = set()
                comm.acks_sent.add(src)
                self._send_ack(comm, src)
            cid = comm.local_cid
        else:
            if comm.excid_state is not None:
                # Fast path: receiver-local CID arrived in the ctx field —
                # constant-time array lookup, marginally cheaper than the
                # baseline's hash+validate (paper: "in some cases showing
                # an improvement").
                match_cost *= 0.97
            cid = ctx

        now = self.engine.now
        match_busy = self.match_busy
        start = now if now > match_busy else match_busy
        complete_at = start + match_cost
        self.match_busy = complete_at

        # From here on the packet is the message: what a receive matches.
        pkt.src = src
        pkt.tag = tag
        request = self.matching.incoming(cid, pkt)
        if request is not None:
            self.engine.post_at(
                complete_at, partial(self._match_complete, comm, request, pkt))

    def _consume_match(self, comm, request, pkt: Packet) -> None:
        """A freshly posted receive matched an unexpected message."""
        now = self.engine.now
        match_busy = self.match_busy
        start = now if now > match_busy else match_busy
        complete_at = start + self.machine.match_overhead
        self.match_busy = complete_at
        self.engine.post_at(
            complete_at, partial(self._match_complete, comm, request, pkt))

    def _match_complete(self, comm, request, pkt: Packet) -> None:
        if request.triggered:
            return  # already failed (peer/communicator failure raced the match)
        if pkt.protocol == "eager":
            request.complete(Status(pkt.src, pkt.tag, pkt.nbytes), pkt.payload)
        else:
            # Rendezvous: ask the sender for the bulk data.  A dead
            # sender can never answer the CTS — fail the receive now.
            sender = pkt.src_proc
            if self._peer_dead(sender):
                request.fail(
                    MPIErrProcFailed(f"{comm.name}: rendezvous sender {sender} failed")
                )
                return
            self._track_pending(comm, sender, request)
            cts = Packet(
                kind="cts",
                src_proc=self.proc,
                sender_req=pkt.sender_req,
                recv_req=request,
                payload=(pkt._rts_payload, pkt.src, pkt.tag, pkt.nbytes),
            )
            self._inject(self.peer(sender), cts)

    def _send_ack(self, comm, peer_rank: int) -> None:
        self.stats["acks"] += 1
        peer = comm.group.proc(peer_rank)
        ack = Packet(
            kind="ack",
            src_proc=self.proc,
            ack_excid=comm.excid.key(),
            ack_cid=comm.local_cid,
        )
        tr = self.engine.tracer
        if tr.enabled:
            tr.event(self.engine.now, "events:pml", "pml.cid_ack", dst=str(peer))
        self._inject(self.peer(peer), ack)

    def _deliver_ack(self, pkt: Packet) -> None:
        comm = self.runtime.comm_by_excid(pkt.ack_excid)
        if comm is None:
            return  # communicator freed while the ACK was in flight
        rank = comm.group.rank_of(pkt.src_proc)
        if rank >= 0 and rank not in comm.peer_cids:
            comm.peer_cids[rank] = pkt.ack_cid
            tr = self.engine.tracer
            if tr.enabled:
                tr.event(self.engine.now, "events:pml", "pml.cid_switch",
                         peer=rank)

    def _deliver_cts(self, pkt: Packet) -> None:
        sender_req = pkt.sender_req
        if sender_req.triggered:
            return  # duplicate CTS, or the send was already failed
        payload, src, tag, nbytes = pkt.payload
        data = Packet(
            kind="data",
            src_proc=self.proc,
            payload=(payload, src, tag, nbytes),
            nbytes=nbytes,
            recv_req=pkt.recv_req,
            sender_req=sender_req,
        )
        injection_done = self._inject(self.peer(pkt.src_proc), data)
        # ``src`` is this sender's rank in the communicator: the send
        # request reports it exactly as an eager one does.
        self.engine.post_at(
            injection_done,
            partial(self._send_complete, sender_req, Status(src, tag, nbytes)))

    @staticmethod
    def _send_complete(request, status: Status) -> None:
        if not request.triggered:     # else: failed meanwhile
            request.complete(status)

    def _deliver_data(self, pkt: Packet) -> None:
        recv_req = pkt.recv_req
        if recv_req.triggered:
            return  # duplicate data packet, or the receive was already failed
        payload, src, tag, nbytes = pkt.payload
        recv_req.complete(Status(src, tag, nbytes), payload)
