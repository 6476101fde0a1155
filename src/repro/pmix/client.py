"""PMIx client library (the process-side API).

Every simulated MPI process owns one :class:`PmixClient` connected to
its node's :class:`~repro.pmix.server.PmixServer`.  All potentially
blocking calls are sub-generators used as ``result = yield from
client.fence(...)`` inside a simulated process.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional

from repro.pmix.server import PmixServer
from repro.pmix.types import (
    PMIX_ERR_NOT_FOUND,
    PMIX_ERR_PROC_ABORTED,
    PMIX_ERR_TIMEOUT,
    PMIX_JOB_SIZE,
    PMIX_QUERY_NUM_PSETS,
    PMIX_QUERY_PSET_NAMES,
    PMIX_RANK_WILDCARD,
    PMIX_TIMEOUT,
    PmixError,
    PmixProc,
    ProcSet,
    info_dict,
)
from repro.simtime.process import Sleep, SimTimeout, Wait
from repro.simtime.trace import track_for_daemon, track_for_proc


class PmixClient:
    """Client-side PMIx connection for one process."""

    __slots__ = ("proc", "server", "engine", "machine", "initialized",
                 "_staged", "_coll_counters", "_group_pgcids",
                 "invite_handler", "group_ready_handler")

    def __init__(self, proc: PmixProc, server: PmixServer) -> None:
        self.proc = proc
        self.server = server
        self.engine = server.engine
        self.machine = server.machine
        self.initialized = False
        self._staged: Optional[Dict[str, Any]] = None    # made by put()
        self._coll_counters: Dict[Hashable, int] = {}
        self._group_pgcids: Dict[str, int] = {}
        # Asynchronous group construction (invite/join model).
        self.invite_handler: Optional[Callable] = None
        self.group_ready_handler: Optional[Callable] = None

    @property
    def obs_track(self) -> str:
        """This process's trace timeline (built only when tracing)."""
        return track_for_proc(self.proc)

    # -- lifecycle ------------------------------------------------------------
    def init(self):
        """PMIx_Init: connect to the local server (idempotent refcount elided:
        the MPI layer tracks its own refcounts; a second init is an error)."""
        if self.initialized:
            raise PmixError(PMIX_ERR_NOT_FOUND, "client already initialized")
        self.server.check_registered(self.proc.nspace)
        tr = self.engine.tracer
        sid = tr.enabled and tr.begin(self.engine.now, self.obs_track, "pmix.client.init")
        yield Sleep(self.machine.local_rpc_cost)
        self.server.register_client(self)
        self.initialized = True
        if sid:
            tr.end(self.engine.now, sid)
        return self.proc

    def finalize(self):
        tr = self.engine.tracer
        sid = tr.enabled and tr.begin(self.engine.now, self.obs_track, "pmix.client.finalize")
        yield Sleep(self.machine.local_rpc_cost)
        self.server.deregister_client(self.proc)
        self.initialized = False
        if sid:
            tr.end(self.engine.now, sid)

    # -- kvs ---------------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        """Stage a (key, value); visible to others after commit + fence."""
        if self._staged is None:
            self._staged = {}
        self._staged[key] = value

    def commit(self):
        """Push staged data to the local server."""
        if self._staged:
            yield Sleep(self.machine.local_rpc_cost)
            for key, value in self._staged.items():
                self.server.datastore.put(self.proc, key, value)
            self._staged = None

    def get(self, proc: PmixProc, key: str):
        """PMIx_Get: local lookup, falling back to direct modex."""
        self.server.check_registered(self.proc.nspace)
        yield Sleep(self.machine.local_rpc_cost)
        found, value = self.server.datastore.get(proc, key)
        if found:
            return value
        if proc.rank == PMIX_RANK_WILDCARD or self.server.node_of(proc) == self.server.node:
            raise PmixError(PMIX_ERR_NOT_FOUND, f"{key} for {proc}")
        ev = self.server.request_remote(proc, key)
        yield Wait(ev)
        found, value = self.server.datastore.get(proc, key)
        if not found:
            raise PmixError(PMIX_ERR_NOT_FOUND, f"{key} for {proc}")
        return value

    # -- collectives ---------------------------------------------------------------
    def _next_sig(self, kind: str, member_key: Hashable, extra: Hashable = None) -> Hashable:
        key = (kind, member_key, extra)
        serial = self._coll_counters.get(key, 0)
        self._coll_counters[key] = serial + 1
        return (kind, member_key, extra, serial)

    def fence(self, procs: Optional[Iterable[PmixProc]] = None, collect: bool = True):
        """PMIx_Fence over ``procs`` (default: the whole namespace).

        ``procs`` is handed on as one :class:`ProcSet` — itself when it
        already is one, so N ranks fencing over a shared membership pay
        for its order and fingerprint once.  The whole-namespace form
        sends none — servers use the job's own proc set.
        """
        self.server.check_registered(self.proc.nspace)
        if procs:
            participants: Optional[ProcSet] = ProcSet(procs).canonical()
            member_key: Hashable = participants.member_key
        else:
            participants = None
            member_key = ("ns-all", self.proc.nspace)
        sig = self._next_sig("fence", member_key, collect)
        blob = self.server.datastore.rank_blob(self.proc)
        tr = self.engine.tracer
        sid = tr.enabled and tr.begin(
            self.engine.now, self.obs_track, "pmix.client.fence",
            nprocs=len(participants) if participants else -1, collect=collect)
        t_req = self.engine.now
        yield Sleep(self.machine.local_rpc_cost)
        if tr.enabled:
            tr.flow("pmix.rpc.fence", self.obs_track, t_req,
                    track_for_daemon(self.server.node), self.engine.now)
        ev = self.server.fence_arrive(sig, self.proc, participants, blob, collect)
        try:
            result = yield Wait(ev)
        finally:
            if sid:
                tr.end(self.engine.now, sid)
        return result

    def fence_retry(
        self,
        procs: Optional[Iterable[PmixProc]] = None,
        collect: bool = True,
        max_attempts: int = 4,
    ):
        """Survivor-reissued PMIx_Fence (docs/recovery.md).

        Like :meth:`fence`, but a fence that fails with
        PMIX_ERR_PROC_ABORTED is re-issued with the dead participants
        evicted from the membership; PMIX_ERR_TIMEOUT retries with the
        membership unchanged (a net for propagation races).  The
        whole-namespace form is materialized to an explicit sorted proc
        list so eviction changes the collective signature identically on
        every survivor — the failed set travels through grpcomm, so all
        survivors prune the same procs.
        """
        if procs:
            members = ProcSet(procs).canonical()
        else:
            members = self.server.job_procs[self.proc.nspace]
        tr = self.engine.tracer
        last: Optional[PmixError] = None
        for attempt in range(max_attempts):
            try:
                result = yield from self.fence(members, collect=collect)
                return result
            except PmixError as err:
                if err.status == PMIX_ERR_PROC_ABORTED:
                    dead = set(err.failed_procs)
                    if dead:
                        members = ProcSet(p for p in members if p not in dead)
                        if self.proc not in members:
                            raise
                elif err.status != PMIX_ERR_TIMEOUT:
                    raise
                last = err
                self.server.daemon.dvm.fence_retries += 1
                if tr.enabled:
                    tr.event(self.engine.now, self.obs_track,
                             "recovery.pmix.fence_retry",
                             attempt=attempt + 1, status=err.status,
                             members=len(members))
        assert last is not None
        raise last

    def group_construct(
        self,
        gid: str,
        procs: Iterable[PmixProc],
        directives: Optional[Dict[str, Any]] = None,
    ):
        """PMIx_Group_construct (collective form, paper Fig 2).

        Returns the 64-bit PGCID.  Honors the ``PMIX_TIMEOUT`` directive:
        if any participant fails to arrive in time this raises
        ``PmixError(PMIX_ERR_TIMEOUT)``.
        """
        self.server.check_registered(self.proc.nspace)
        directives = info_dict(directives)
        participants = ProcSet(procs).canonical()
        if self.proc not in participants:
            raise PmixError(PMIX_ERR_NOT_FOUND, f"{self.proc} not in group {gid!r}")
        sig = self._next_sig("grp", participants.member_key, gid)
        tr = self.engine.tracer
        sid = tr.enabled and tr.begin(
            self.engine.now, self.obs_track, "pmix.client.group_construct",
            gid=gid, nprocs=len(participants))
        t_req = self.engine.now
        yield Sleep(self.machine.local_rpc_cost)
        if tr.enabled:
            tr.flow("pmix.rpc.group", self.obs_track, t_req,
                    track_for_daemon(self.server.node), self.engine.now)
        ev = self.server.group_construct_arrive(sig, gid, self.proc, participants, directives)
        timeout = directives.get(PMIX_TIMEOUT)
        try:
            result = yield Wait(ev, timeout=timeout)
        except SimTimeout:
            raise PmixError(
                PMIX_ERR_TIMEOUT, f"group {gid!r} construct timed out after {timeout}s"
            ) from None
        finally:
            if sid:
                tr.end(self.engine.now, sid)
        self._group_pgcids[gid] = result.context_id
        return result.context_id

    def group_destruct(self, gid: str, procs: Iterable[PmixProc], timeout: Optional[float] = None):
        """PMIx_Group_destruct (collective)."""
        participants = ProcSet(procs).canonical()
        sig = self._next_sig("grpdel", participants.member_key, gid)
        tr = self.engine.tracer
        sid = tr.enabled and tr.begin(
            self.engine.now, self.obs_track, "pmix.client.group_destruct",
            gid=gid, nprocs=len(participants))
        yield Sleep(self.machine.local_rpc_cost)
        ev = self.server.group_destruct_arrive(sig, gid, self.proc, participants)
        try:
            yield Wait(ev, timeout=timeout)
        except SimTimeout:
            raise PmixError(
                PMIX_ERR_TIMEOUT, f"group {gid!r} destruct timed out after {timeout}s"
            ) from None
        finally:
            if sid:
                tr.end(self.engine.now, sid)
        self._group_pgcids.pop(gid, None)

    # -- queries -------------------------------------------------------------------
    def query(self, keys: List[str]):
        """PMIx_Query_info: pset discovery and friends."""
        tr = self.engine.tracer
        sid = tr.enabled and tr.begin(self.engine.now, self.obs_track,
                                      "pmix.client.query", keys=",".join(keys))
        yield Sleep(self.machine.local_rpc_cost)
        if sid:
            tr.end(self.engine.now, sid)
        out: Dict[str, Any] = {}
        for key in keys:
            if key == PMIX_QUERY_NUM_PSETS:
                out[key] = self.server.query_psets()[0]
            elif key == PMIX_QUERY_PSET_NAMES:
                out[key] = self.server.query_psets()[1]
            elif key == PMIX_JOB_SIZE:
                found, value = self.server.datastore.get(
                    PmixProc(self.proc.nspace, PMIX_RANK_WILDCARD), PMIX_JOB_SIZE
                )
                if not found:
                    raise PmixError(PMIX_ERR_NOT_FOUND, key)
                out[key] = value
            else:
                raise PmixError(PMIX_ERR_NOT_FOUND, f"unsupported query key {key!r}")
        return out

    def pset_membership(self, name: str):
        """Resolve a pset name to its member processes."""
        tr = self.engine.tracer
        sid = tr.enabled and tr.begin(self.engine.now, self.obs_track,
                                      "pmix.client.pset_membership", pset=name)
        yield Sleep(self.machine.local_rpc_cost)
        if sid:
            tr.end(self.engine.now, sid)
        members = self.server.query_pset_membership(name)
        if members is None:
            raise PmixError(PMIX_ERR_NOT_FOUND, f"process set {name!r}")
        return members

    # -- asynchronous groups (invite/join, paper §III-A) -----------------------------
    def set_invite_handler(self, fn: Callable[[str, PmixProc, Dict], bool]) -> None:
        """Register the callback deciding whether to join invited groups."""
        self.invite_handler = fn

    def set_group_ready_handler(self, fn: Callable[[str, int, tuple], None]) -> None:
        """Register the callback fired when a joined group completes."""
        self.group_ready_handler = fn

    def group_invite(
        self,
        gid: str,
        procs: List[PmixProc],
        timeout: Optional[float] = None,
    ):
        """Sub-generator: asynchronously construct a group by invitation.

        Returns an :class:`~repro.pmix.async_groups.AsyncGroupResult`;
        targets that decline or fail to respond within ``timeout`` are
        simply left out (the "replace processes that refuse" model).
        """
        targets = [p for p in procs if p != self.proc]
        yield Sleep(self.machine.local_rpc_cost)
        ev = self.server.start_invite(self.proc, gid, targets, timeout)
        result = yield Wait(ev)
        self._group_pgcids[gid] = result.pgcid
        return result

    def group_leave(self, gid: str):
        """Sub-generator: depart a group; survivors get PMIX_GROUP_LEFT."""
        yield Sleep(self.machine.local_rpc_cost)
        self.server.group_leave(self.proc, gid)
        self._group_pgcids.pop(gid, None)

    # -- events --------------------------------------------------------------------
    def register_event_handler(
        self, codes: Optional[List[int]], callback: Callable[[int, PmixProc, Dict], None]
    ) -> None:
        self.server.register_event_handler(self.proc, codes, callback)

    def notify_event(self, code: int, info: Optional[Dict[str, Any]] = None) -> None:
        self.server.notify_event(code, self.proc, info or {})
