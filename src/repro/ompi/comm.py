"""MPI Communicators.

The user-facing object: point-to-point (mpi4py-style lowercase
methods, all blocking calls are sub-generators), collectives, and the
constructors whose CID machinery is the heart of the paper:

* ``dup`` / ``split`` / ``create`` / ``create_group`` / ``shrink`` — all
  obtain their id from ``Communicator._new_comm``.  In consensus mode it
  runs the legacy allreduce loop on the parent's point-to-point: over
  every parent rank for ``dup`` and ``create``, within the new subgroup
  for ``split``, ``create_group`` and ``shrink``.  In exCID mode it takes
  a fresh PGCID, unless ``dup`` derived a subfield id per the
  configured policy;
* ``comm_create_from_group`` (module function; also exposed via
  :meth:`repro.ompi.runtime.MpiRuntime.comm_create_from_group`) — the
  new Sessions constructor with *no parent*, which is exactly why the
  exCID generator exists.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.ompi import coll
from repro.ompi.cid import allocate_consensus_cid
from repro.ompi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    _TAG_SENDRECV,
    UNDEFINED,
    Op,
)
from repro.ompi.datatype import sizeof_payload
from repro.ompi.errors import (
    ERRORS_ARE_FATAL,
    Errhandler,
    MPIErrArg,
    MPIErrComm,
    MPIErrGroup,
    MPIErrProcFailed,
    MPIErrRank,
    MPIErrRevoked,
    MPIErrTag,
)
from repro.ompi.excid import ExcidState
from repro.ompi.group import Group
from repro.ompi.request import Request
from repro.ompi.status import Status
from repro.simtime.process import SLEEP0, Sleep, Spawn, Wait


_NO_RANKS: frozenset = frozenset()     # what a healthy communicator shares


class Communicator:
    """A communication context over an ordered group of processes."""

    _ids = itertools.count()

    # Every rank holds one per communicator: slotted, no __dict__.
    # ``cart`` is set only on a communicator made by ``create_cart``.
    __slots__ = (
        "runtime", "group", "local_cid", "excid_state", "session", "name",
        "rank", "size", "errhandler", "freed", "failed_peers", "revoked",
        "_ft_mode", "_ulfm_serial", "peer_cids", "acks_sent", "_send_peers",
        "_dup_serial", "_identity", "cart",
    )

    def __init__(
        self,
        runtime,
        group: Group,
        local_cid: int,
        excid_state: Optional[ExcidState] = None,
        name: str = "",
        session=None,
    ) -> None:
        self.runtime = runtime
        self.group = group
        self.local_cid = local_cid
        self.excid_state = excid_state
        self.session = session
        self.name = name or f"comm-{next(self._ids)}"
        self.rank = group.rank_of(runtime.proc)
        if self.rank == UNDEFINED:
            raise MPIErrGroup(f"{runtime.proc} is not a member of {self.name}")
        self.size = group.size
        self.errhandler: Errhandler = ERRORS_ARE_FATAL
        self.freed = False
        # Fault state (ULFM-lite, docs/faults.md): ranks known to have
        # failed.  A communicator with failed peers is *damaged* — every
        # new operation on it raises MPI_ERR_PROC_FAILED rather than
        # risking a hang on a peer that will never answer.
        self.failed_peers = _NO_RANKS   # a set once the first peer fails
        for p in getattr(runtime, "failed_procs", ()):
            r = group.rank_of(p)
            if r >= 0 and r != self.rank:
                self._mark_failed(r)
        # ULFM-lite recovery state (docs/recovery.md): a revoked comm
        # fails every operation with MPI_ERR_REVOKED; _ft_mode lets the
        # recovery collectives (agree/shrink) run on a damaged comm.
        self.revoked = False
        self._ft_mode = False
        self._ulfm_serial = 0
        # exCID handshake state (paper §III-B4).
        self.peer_cids: dict = {}      # peer rank -> peer's local CID
        self.acks_sent = _NO_RANKS     # peer ranks we already ACKed (a set
                                       # once there is one)
        # Destination rank -> the endpoint's peer record, filled by
        # Ob1Endpoint.send_peer; None until the first send.
        self._send_peers: Optional[dict] = None
        self._dup_serial = 0
        # Globally consistent identity (cached: used per-message for the
        # per-(pair, communicator) ordering key).
        if self.excid_state is not None:
            self._identity = str(self.excid_state.excid)
        else:
            self._identity = f"builtin-cid{local_cid}"

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def excid(self):
        return self.excid_state.excid if self.excid_state is not None else None

    def _check(self) -> None:
        if self.freed:
            raise MPIErrComm(f"{self.name} used after free")

    # ------------------------------------------------------------------
    # fault state
    # ------------------------------------------------------------------
    def _mark_failed(self, rank: int) -> None:
        if self.failed_peers is _NO_RANKS:
            self.failed_peers = set()
        self.failed_peers.add(rank)

    def _damage_error(self) -> MPIErrProcFailed:
        return MPIErrProcFailed(
            f"{self.name}: peer rank(s) {sorted(self.failed_peers)} failed"
        )

    def _revoked_error(self) -> MPIErrRevoked:
        return MPIErrRevoked(f"{self.name} has been revoked")

    def _check_damage(self) -> None:
        """Raise (raw) if this communicator is revoked or has failed
        peers — unless a recovery collective is running (_ft_mode)."""
        if self._ft_mode:
            return
        if self.revoked:
            raise self._revoked_error()
        if self.failed_peers:
            raise self._damage_error()

    def _pre_coll(self) -> None:
        """Entry check for collectives: free state + damage, routed
        through the communicator's error handler."""
        self._check()
        if self._ft_mode:
            return
        if self.revoked:
            self.errhandler.invoke(self, self._revoked_error())
        if self.failed_peers:
            self.errhandler.invoke(self, self._damage_error())

    def peer_failed(self, rank: int, proc) -> None:
        """A member process died: damage this communicator.

        Pending receives are failed with MPI_ERR_PROC_FAILED (they were
        posted against a context that can no longer complete collectively)
        and in-flight rendezvous requests are failed at the endpoint.
        """
        if self.freed or rank in self.failed_peers:
            return
        self._mark_failed(rank)
        tr = self.runtime.engine.tracer
        if tr.enabled:
            tr.event(self.runtime.engine.now, "events:faults",
                     "faults.comm_damaged",
                     comm=self.name, rank=self.rank, failed=rank)
        endpoint = self.runtime.endpoint
        if endpoint is not None:
            err = MPIErrProcFailed(f"{self.name}: peer rank {rank} ({proc}) failed")
            for request in endpoint.matching.cancel_posted(self.local_cid):
                if not request.triggered:
                    request.fail(err)
            endpoint.comm_failed(self)

    # ------------------------------------------------------------------
    # observability helpers: callers check ``engine.tracer.enabled``
    # first and end only a nonzero sid, so tracing off costs no call
    # ------------------------------------------------------------------
    def _obs_begin(self, name: str, **attrs) -> int:
        rt = self.runtime
        return rt.engine.tracer.begin(rt.engine.now, rt.obs_track, name,
                                      comm=self.name, **attrs)

    def _obs_end(self, sid: int) -> None:
        engine = self.runtime.engine
        engine.tracer.end(engine.now, sid)

    def get_group(self) -> Group:
        """MPI_Comm_group: a new handle on this communicator's group."""
        self._check()
        return Group(self.group.members())

    def set_errhandler(self, handler: Errhandler) -> None:
        self._check()
        self.errhandler = handler

    def identity(self) -> str:
        """Globally consistent name for runtime-side disambiguation."""
        return self._identity

    # ------------------------------------------------------------------
    # point-to-point (user tags must be >= 0)
    # ------------------------------------------------------------------
    # The four _check* helpers re-test what their callers on the message
    # path have already tested inline: a healthy call pays no frame for
    # them, they are entered only to raise.
    def _check_user_tag(self, tag: int, recv: bool = False) -> None:
        if recv and tag == ANY_TAG:
            return
        if tag < 0:
            raise MPIErrTag(f"user tag must be >= 0 (got {tag})")

    def _check_peer(self, rank: int, recv: bool = False) -> None:
        if recv and rank == ANY_SOURCE:
            return
        if not 0 <= rank < self.size:
            raise MPIErrRank(f"peer rank {rank} out of range for size {self.size}")

    def isend(self, obj, dest: int, tag: int = 0, nbytes: Optional[int] = None):
        """Sub-generator: start a nonblocking send; returns a Request."""
        if self.freed:
            self._check()
        if tag < 0:
            self._check_user_tag(tag)
        if not 0 <= dest < self.size:
            self._check_peer(dest)
        try:
            return (yield from self._isend_internal(obj, dest, tag, nbytes))
        except MPIErrProcFailed as err:
            self.errhandler.invoke(self, err)

    def _isend_internal(self, obj, dest: int, tag: int, nbytes: Optional[int] = None):
        """Returns the endpoint's send sub-generator (evaluates to the
        Request) — not a generator itself, so a send costs one generator
        frame here, not two."""
        if self.revoked or self.failed_peers:
            self._check_damage()
        size = nbytes if nbytes is not None else sizeof_payload(obj)
        return self.runtime.endpoint.isend(self, obj, dest, tag, size, Request("send"))

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Post a nonblocking receive (instantaneous); returns a Request."""
        if self.freed:
            self._check()
        if tag < 0 and tag != ANY_TAG:
            self._check_user_tag(tag, recv=True)
        if not 0 <= source < self.size and source != ANY_SOURCE:
            self._check_peer(source, recv=True)
        try:
            return self._irecv_internal(source, tag)
        except MPIErrProcFailed as err:
            self.errhandler.invoke(self, err)

    def _irecv_internal(self, source: int, tag: int) -> Request:
        if self.revoked or self.failed_peers:
            self._check_damage()
        req = Request("recv", source, tag)
        self.runtime.endpoint.irecv(self, req)
        return req

    def send(self, obj, dest: int, tag: int = 0, nbytes: Optional[int] = None):
        """Sub-generator: blocking send."""
        sid = (self.runtime.engine.tracer.enabled
               and self._obs_begin("ompi.pml.send", dest=dest, tag=tag))
        try:
            req = yield from self.isend(obj, dest, tag, nbytes)
            yield from req.wait()
        finally:
            if sid:
                self._obs_end(sid)

    def _send_internal(self, obj, dest: int, tag: int, nbytes: Optional[int] = None):
        """Sub-generator: blocking send for the collectives.

        Same suspensions as ``isend`` + ``wait``, minus the machinery an
        eager send does not need: no Request/SimEvent/Status, and a
        zero-sleep stands in for the wait on the already-complete
        request (docs/performance.md)."""
        if self.revoked or self.failed_peers:
            self._check_damage()
        size = nbytes if nbytes is not None else sizeof_payload(obj)
        ep = self.runtime.endpoint
        peer = ep.send_peer(self, dest)
        if not peer.known:
            yield from ep.discover(peer)
        req = None if size <= ep.machine.eager_limit else Request("send")
        busy = ep.start_send(self, obj, dest, tag, size, req, peer)
        if busy > 0:
            yield Sleep(busy)
        yield SLEEP0 if req is None else Wait(req)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status: Optional[Status] = None):
        """Sub-generator: blocking receive; returns the payload."""
        sid = (self.runtime.engine.tracer.enabled
               and self._obs_begin("ompi.pml.recv", source=source, tag=tag))
        try:
            req = self.irecv(source, tag)
            st = yield from req.wait()
        finally:
            if sid:
                self._obs_end(sid)
        if status is not None:
            status.source, status.tag, status.count = st.source, st.tag, st.count
        return req.payload

    def _recv_internal(self, source: int, tag: int):
        req = self._irecv_internal(source, tag)
        yield Wait(req)
        return req.payload

    def sendrecv(
        self,
        sendobj,
        dest: int,
        recvsource: int,
        sendtag: int = _TAG_SENDRECV & 0x7FFFFFFF,
        recvtag: int = ANY_TAG,
        nbytes: Optional[int] = None,
    ):
        """Sub-generator: simultaneous send + receive (deadlock-free)."""
        if self.freed:
            self._check()
        if not 0 <= dest < self.size:
            self._check_peer(dest)
        if not 0 <= recvsource < self.size and recvsource != ANY_SOURCE:
            self._check_peer(recvsource, recv=True)
        try:
            rreq = self._irecv_internal(recvsource, recvtag)
            sreq = yield from self._isend_internal(sendobj, dest, sendtag, nbytes)
            yield from sreq.wait()
            yield from rreq.wait()
        except MPIErrProcFailed as err:
            self.errhandler.invoke(self, err)
        return rreq.payload

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Instantaneous probe of the unexpected queue."""
        self._check()
        return self.runtime.endpoint.probe(self, source, tag)

    def improbe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """MPI_Improbe: claim a matched message, or None.

        The returned :class:`MatchedMessage` is removed from the
        matching queues — no other receive can take it — and is
        consumed with its :meth:`MatchedMessage.mrecv`."""
        self._check()
        msg = self.runtime.endpoint.matching.mprobe(self.local_cid, source, tag)
        if msg is None:
            return None
        return MatchedMessage(self, msg)

    def mprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
               timeout: Optional[float] = None):
        """Sub-generator: blocking MPI_Mprobe (polls the unexpected queue).

        Being a poll, a probe nobody ever satisfies evades the engine's
        deadlock detector (simulated time keeps advancing); pass
        ``timeout`` (simulated seconds) to fail loudly instead —
        raises :class:`~repro.simtime.process.SimTimeout`.
        """
        from repro.simtime.process import Sleep, SimTimeout

        deadline = None if timeout is None else self.runtime.engine.now + timeout
        while True:
            matched = self.improbe(source, tag)
            if matched is not None:
                return matched
            if deadline is not None and self.runtime.engine.now >= deadline:
                raise SimTimeout(
                    f"mprobe(source={source}, tag={tag}) timed out after {timeout}s"
                )
            yield Sleep(self.runtime.machine.match_overhead * 4)

    # -- persistent requests -------------------------------------------------
    def send_init(self, obj, dest: int, tag: int = 0, nbytes: Optional[int] = None):
        """MPI_Send_init: freeze send arguments (local, instantaneous)."""
        self._check()
        self._check_user_tag(tag)
        self._check_peer(dest)
        from repro.ompi.persistent import PersistentSend

        return PersistentSend(self, obj, dest, tag, nbytes)

    def recv_init(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """MPI_Recv_init: freeze receive arguments (local, instantaneous)."""
        self._check()
        self._check_user_tag(tag, recv=True)
        self._check_peer(source, recv=True)
        from repro.ompi.persistent import PersistentRecv

        return PersistentRecv(self, source, tag)

    # -- topology --------------------------------------------------------------
    def create_cart(self, dims=None, periods=True, ndims: int = 2):
        """Sub-generator: MPI_Cart_create; returns a comm with ``.cart``."""
        from repro.ompi.topo import cart_create

        return (yield from cart_create(self, dims, periods, ndims))

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    # Each entry point checks the communicator and returns the
    # algorithm's sub-generator for the caller's ``yield from``: a rank
    # blocked in a collective holds no frame of this class.  Only a
    # traced run pays one, the span around it (``_traced``).
    def _traced(self, gen, name: str, **attrs):
        """Sub-generator: ``gen`` inside an ``ompi.coll`` span."""
        sid = self._obs_begin(name, **attrs)
        try:
            return (yield from gen)
        finally:
            if sid:
                self._obs_end(sid)

    def barrier(self):
        self._pre_coll()
        gen = coll.barrier(self)
        if self.runtime.engine.tracer.enabled:
            return self._traced(gen, "ompi.coll.barrier")
        return gen

    def ibarrier(self):
        """Sub-generator: returns a Request completed when all arrive."""
        self._pre_coll()
        req = Request("ibarrier")
        yield Spawn(coll.ibarrier_runner(self, req), name=f"ibarrier-{self.name}-r{self.rank}")
        return req

    def bcast(self, obj, root: int = 0, nbytes: Optional[int] = None):
        self._pre_coll()
        gen = coll.bcast(self, obj, root, nbytes)
        if self.runtime.engine.tracer.enabled:
            return self._traced(gen, "ompi.coll.bcast", root=root)
        return gen

    def reduce(self, value, op: Op, root: int = 0, nbytes: Optional[int] = None):
        self._pre_coll()
        return coll.reduce(self, value, op, root, nbytes)

    def allreduce(self, value, op: Op, nbytes: Optional[int] = None):
        self._pre_coll()
        gen = coll.allreduce(self, value, op, nbytes)
        if self.runtime.engine.tracer.enabled:
            return self._traced(gen, "ompi.coll.allreduce")
        return gen

    def gather(self, value, root: int = 0, nbytes: Optional[int] = None):
        self._pre_coll()
        return coll.gather(self, value, root, nbytes)

    def scatter(self, values, root: int = 0, nbytes: Optional[int] = None):
        self._pre_coll()
        return coll.scatter(self, values, root, nbytes)

    def allgather(self, value, nbytes: Optional[int] = None):
        self._pre_coll()
        return coll.allgather(self, value, nbytes)

    def alltoall(self, values, nbytes: Optional[int] = None):
        self._pre_coll()
        return coll.alltoall(self, values, nbytes)

    def scan(self, value, op: Op, nbytes: Optional[int] = None):
        self._pre_coll()
        return coll.scan(self, value, op, nbytes)

    def exscan(self, value, op: Op, nbytes: Optional[int] = None):
        self._pre_coll()
        return coll.exscan(self, value, op, nbytes)

    # -- nonblocking collectives ------------------------------------------
    def ibcast(self, obj, root: int = 0, nbytes: Optional[int] = None):
        self._pre_coll()
        from repro.ompi.coll.nonblocking import ibcast

        return ibcast(self, obj, root, nbytes)

    def iallreduce(self, value, op: Op, nbytes: Optional[int] = None):
        self._pre_coll()
        from repro.ompi.coll.nonblocking import iallreduce

        return iallreduce(self, value, op, nbytes)

    def igather(self, value, root: int = 0, nbytes: Optional[int] = None):
        self._pre_coll()
        from repro.ompi.coll.nonblocking import igather

        return igather(self, value, root, nbytes)

    def iallgather(self, value, nbytes: Optional[int] = None):
        self._pre_coll()
        from repro.ompi.coll.nonblocking import iallgather

        return iallgather(self, value, nbytes)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    def dup(self):
        """Sub-generator: MPI_Comm_dup (collective over the communicator)."""
        self._check()
        sid = self.runtime.engine.tracer.enabled and self._obs_begin("ompi.comm.dup")
        try:
            return (yield from self._dup_internal())
        finally:
            if sid:
                self._obs_end(sid)

    def _dup_internal(self):
        runtime = self.runtime
        excid_state = gid = None
        if runtime.excid_enabled:
            parent = self.excid_state
            if (runtime.config.excid_dup_policy == "subfield"
                    and parent is not None and parent.can_derive()):
                # Purely local derivation; a barrier stands in for Open
                # MPI's communicator-activation collective.
                excid_state = parent.derive()
                yield from coll.barrier(self)
            else:
                # A fresh PGCID (what the measured prototype did on every
                # dup — Fig 4).
                gid = f"dup:{self.identity()}:{self._dup_serial}"
                self._dup_serial += 1
        new = yield from self._new_comm(self.group, f"{self.name}.dup", gid,
                                        subgroup=False, excid_state=excid_state)
        new.errhandler = self.errhandler
        return new

    def _new_comm(self, group: Group, name: str, gid: Optional[str],
                  subgroup: bool = True,
                  excid_state: Optional[ExcidState] = None):
        """Sub-generator: the one place a constructor obtains its id.

        Builds and registers a communicator over ``group``; every member
        calls.  The id is ``excid_state`` when the caller derived one
        (``dup``'s subfield policy); else, with the exCID generator, a
        fresh PGCID from PMIx group construction under ``gid``
        (§III-B3); else the consensus loop's CID (§III-B2), agreed among
        ``group``'s members when ``subgroup``, over every parent rank
        otherwise.
        """
        runtime = self.runtime
        if excid_state is None and runtime.excid_enabled:
            pgcid = yield from runtime.pmix.group_construct(gid, group.members())
            excid_state = ExcidState.from_pgcid(pgcid)
        if excid_state is not None:
            cid = runtime.cid_table.lowest_free()
        else:
            members = ([self.group.rank_of(p) for p in group.members()]
                       if subgroup else None)
            cid = yield from allocate_consensus_cid(self, members)
        new = Communicator(runtime, group, cid, excid_state=excid_state,
                           name=name, session=self.session)
        runtime.register_comm(new)
        return new

    def split(self, color: int, key: int = 0):
        """Sub-generator: MPI_Comm_split.  color=UNDEFINED -> None."""
        self._check()
        triples = yield from coll.allgather(self, (color, key, self.rank), nbytes=24)
        if color == UNDEFINED:
            # Open MPI's split derives subgroup ids from the gathered
            # data; excluded ranks are done after the allgather.
            return None
        mine = sorted((k, r) for (c, k, r) in triples if c == color)
        group = Group([self.group.proc(r) for _k, r in mine])
        return (yield from self._new_comm(
            group, f"{self.name}.split{color}", f"split:{self.identity()}:{color}"))

    def split_type(self, split_type: str = "shared", key: int = 0):
        """Sub-generator: MPI_Comm_split_type.

        ``"shared"`` (MPI_COMM_TYPE_SHARED) groups ranks by node — the
        communicator the ``mpi://shared`` pset also describes.
        """
        self._check()
        if split_type != "shared":
            raise MPIErrArg(f"unsupported split type {split_type!r}")
        server = self.runtime.pmix.server
        color = server.node_of(self.runtime.proc)
        return (yield from self.split(color=color, key=key if key else self.rank))

    def create(self, group: Group):
        """Sub-generator: MPI_Comm_create (all ranks of self call).

        Ranks outside ``group`` get None.
        """
        self._check()
        if self.runtime.proc not in group:
            if not self.runtime.excid_enabled:
                # Everyone participates in the agreement on the parent.
                yield from allocate_consensus_cid(self)
            return None
        return (yield from self._new_comm(Group(group.members()), f"{self.name}.create",
                                          f"create:{self.identity()}",
                                          subgroup=False))

    def create_group(self, group: Group, tag: int = 0):
        """Sub-generator: MPI_Comm_create_group (only group members call)."""
        self._check()
        if self.runtime.proc not in group:
            raise MPIErrGroup("create_group caller must be a group member")
        return (yield from self._new_comm(Group(group.members()), f"{self.name}.cgrp{tag}",
                                          f"cgrp{tag}:{self.identity()}"))

    # ------------------------------------------------------------------
    # ULFM-lite recovery (docs/recovery.md)
    # ------------------------------------------------------------------
    def revoke(self) -> None:
        """MPI_Comm_revoke: invalidate this communicator everywhere.

        Not collective — any member may call it.  Locally it fails every
        pending operation with MPI_ERR_REVOKED; remotely the revocation
        propagates asynchronously to every surviving member, unblocking
        ranks stuck in operations that can no longer complete.  After a
        revoke only ``agree`` and ``shrink`` are useful on this comm.
        """
        self._check()
        if self.revoked:
            return
        rt = self.runtime
        tr = rt.engine.tracer
        if tr.enabled:
            tr.event(rt.engine.now, rt.obs_track, "recovery.comm.revoke",
                     comm=self.name, rank=self.rank)
        self._apply_revoke()
        rt.cluster.recovery_stats["revoke"] += 1
        ident = self.identity()
        failed = getattr(rt, "failed_procs", set())
        boundary = rt.fabric.boundary
        for proc in self.group.members():
            if proc == rt.proc or proc in failed:
                continue
            if boundary is not None and not boundary.owns_proc(proc):
                # Partitioned run: the member's live runtime is in
                # another partition (its local replica never spawned, so
                # it has no endpoint here).  Ship the revoke to the
                # owner; dead peers are skipped like the ``ep is None``
                # case below — death deregisters the endpoint.
                if proc in rt.cluster.faults.dead_procs:
                    continue
                delay = rt.machine.wire_time(False, 64)
                boundary.ship_ctl(rt.engine.now + delay, proc,
                                  ("revoke", ident))
                continue
            ep = rt.fabric._endpoints.get(proc)
            if ep is None:
                continue
            delay = rt.machine.wire_time(ep.node == rt.node, 64)
            rt.engine.call_later(
                delay, lambda e=ep: e.runtime.remote_revoke(ident)
            )

    def _apply_revoke(self) -> None:
        """Local half of a revocation (direct or from a remote member)."""
        if self.revoked or self.freed:
            return
        self.revoked = True
        err = self._revoked_error()
        endpoint = self.runtime.endpoint
        if endpoint is not None:
            for request in endpoint.matching.cancel_posted(self.local_cid):
                if not request.triggered:
                    request.fail(err)
            endpoint.comm_failed(self)

    def agree(self, flag: bool):
        """Sub-generator: MPI_Comm_agree — fault-tolerant AND.

        Returns the logical AND of every surviving member's ``flag``;
        members that died (before or during the agreement) are added to
        ``failed_peers`` and excluded.  Works on revoked and damaged
        communicators — it is the rendezvous that gets all survivors to
        a consistent view.  Every surviving member must call it.
        """
        self._check()
        rt = self.runtime
        sid = rt.engine.tracer.enabled and self._obs_begin(
            "recovery.comm.agree", flag=bool(flag))
        serial = self._ulfm_serial
        self._ulfm_serial += 1
        key = f"ulfm.agree.{self.identity()}.{serial}"
        rt.pmix.put(key, bool(flag))
        yield from rt.pmix.commit()
        members = self.group.members().canonical()
        try:
            result = yield from rt.pmix.fence_retry(members, collect=True)
        finally:
            if sid:
                self._obs_end(sid)
        out = bool(flag)
        for proc in members:
            if proc == rt.proc:
                continue
            blob = result.data.get(proc)
            if not isinstance(blob, dict) or key not in blob:
                # Dead (absent or marker) — record and exclude.
                r = self.group.rank_of(proc)
                if r >= 0:
                    self._mark_failed(r)
                continue
            out = out and bool(blob[key])
        rt.cluster.recovery_stats["agree"] += 1
        return out

    def shrink(self):
        """Sub-generator: MPI_Comm_shrink — a new communicator over the
        survivors, with a *fresh* CID.

        The survivor set is agreed via a survivor-reissued PMIx fence;
        the CID comes from the existing machinery (consensus allreduce
        over the survivors in consensus mode, a fresh PGCID via PMIx
        group construction in exCID mode), run with the damage checks
        suspended.  Every surviving member must call it.
        """
        self._check()
        from repro.pmix.types import ABORTED_MARKER, PMIX_ERR_PROC_ABORTED, PmixError

        rt = self.runtime
        sid = rt.engine.tracer.enabled and self._obs_begin("recovery.comm.shrink")
        serial = self._ulfm_serial
        self._ulfm_serial += 1
        members = self.group.members().canonical()
        try:
            result = yield from rt.pmix.fence_retry(members, collect=False)
            survivors = sorted(
                p for p, v in result.data.items() if v != ABORTED_MARKER
            )
            for proc in members:
                if proc not in result.data:
                    r = self.group.rank_of(proc)
                    if r >= 0:
                        self._mark_failed(r)
            name = f"{self.name}.shrink"
            if not rt.excid_enabled:
                self._ft_mode = True
                try:
                    new = yield from self._new_comm(Group(survivors), name, None)
                finally:
                    self._ft_mode = False
            else:
                procs = list(survivors)
                new = None
                for attempt in range(4):
                    gid = f"shrink:{self.identity()}:{serial}:{attempt}"
                    try:
                        new = yield from self._new_comm(Group(procs), name, gid)
                        break
                    except PmixError as err:
                        if err.status == PMIX_ERR_PROC_ABORTED and err.failed_procs:
                            dead = set(err.failed_procs)
                            procs = [p for p in procs if p not in dead]
                            continue
                        raise
                if new is None:
                    raise MPIErrProcFailed(
                        f"{self.name}: shrink group construction kept failing"
                    )
        finally:
            if sid:
                self._obs_end(sid)
        new.errhandler = self.errhandler
        rt.cluster.recovery_stats["shrink"] += 1
        return new

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def free(self) -> None:
        """Release this communicator (local bookkeeping; the prototype's
        sessions comms do not run a collective destructor — see DESIGN)."""
        self._check()
        self.runtime.deregister_comm(self)
        self._send_peers = None
        self.freed = True

    def __repr__(self) -> str:  # pragma: no cover
        ex = f" {self.excid}" if self.excid is not None else ""
        return f"<Communicator {self.name} rank={self.rank}/{self.size} cid={self.local_cid}{ex}>"


class MatchedMessage:
    """A message claimed by improbe/mprobe, consumed by :meth:`mrecv`."""

    __slots__ = ("comm", "_msg", "consumed")

    def __init__(self, comm: Communicator, msg) -> None:
        self.comm = comm
        self._msg = msg
        self.consumed = False

    @property
    def source(self) -> int:
        return self._msg.src

    @property
    def tag(self) -> int:
        return self._msg.tag

    def mrecv(self, status: Optional[Status] = None):
        """Sub-generator: MPI_Mrecv — receive exactly this message."""
        if self.consumed:
            raise MPIErrArg("matched message received twice")
        self.consumed = True
        req = Request("recv", self._msg.src, self._msg.tag)
        self.comm.runtime.endpoint._consume_match(self.comm, req, self._msg)
        st = yield from req.wait()
        if status is not None:
            status.source, status.tag, status.count = st.source, st.tag, st.count
        return req.payload
