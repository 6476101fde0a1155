"""Node-local PMIx server.

One server per node, co-located with (and attached to) the PRRTE daemon.
Implements the server half of fence, group construct/destruct, direct
modex, event forwarding, and pset queries.  Collective operations follow
the paper's three-stage hierarchy: (1) local clients notify their
server, (2) servers exchange via grpcomm, (3) servers release their
local clients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from typing import TYPE_CHECKING

from repro.pmix.datastore import Datastore
from repro.pmix.types import (
    ABORTED_MARKER,
    PMIX_ERR_NOT_FOUND,
    PMIX_ERR_PROC_ABORTED,
    PMIX_ERR_PROC_TERMINATED,
    PMIX_ERR_TIMEOUT,
    PmixError,
    PmixProc,
    ProcSet,
)
from repro.pmix.wire import SizedDict
from repro.simtime.primitives import SimEvent
from repro.simtime.trace import track_for_daemon, track_for_proc

if TYPE_CHECKING:  # break the pmix <-> prrte import cycle; runtime duck-typed
    from repro.prrte.dvm import Daemon
    from repro.prrte.psets import PsetRegistry

# A dead participant's stand-in contribution (defined in pmix.types so
# the grpcomm restart path can share it; re-exported here for backward
# compatibility).  It travels through grpcomm like a blob, so every
# server sees the same failed-participant set and releases its clients
# with the same error.


@dataclass
class _LocalCollective:
    """Stage-one state: local participants rendezvousing at this server."""

    sig: Hashable
    # Local participants neither arrived nor known dead, kept at arrival
    # and at death: the exchange launches when it empties (no rescan).
    pending: set = field(default_factory=set)
    arrived: Dict[PmixProc, Dict] = field(default_factory=dict)
    events: Dict[PmixProc, SimEvent] = field(default_factory=dict)
    launched: bool = False
    # Launch parameters (kept so death notifications can trigger the
    # launch later, without the original arriving call's arguments).
    participants: ProcSet = ProcSet()               # shared, never copied
    need_context_id: bool = False
    on_complete: Optional[Callable[[Any], None]] = None
    kind: str = "fence"
    aborted: set = field(default_factory=set)       # dead local participants
    timer: Any = None                               # bounded-termination timer
    obs_span: int = 0                               # pmix.server.<kind> span


@dataclass
class _EventRegistration:
    proc: PmixProc
    codes: Optional[Tuple[int, ...]]  # None = all codes
    callback: Callable[[int, PmixProc, Dict], None]


@dataclass
class GroupRecord:
    gid: str
    members: Tuple[PmixProc, ...]
    pgcid: int


from repro.pmix.async_groups import AsyncGroupServerMixin


class PmixServer(AsyncGroupServerMixin):
    """The PMIx server for one node."""

    def __init__(self, daemon: "Daemon", psets: "PsetRegistry") -> None:
        self.daemon = daemon
        self.node = daemon.node
        self.engine = daemon.engine
        self.machine = daemon.machine
        self.psets = psets
        self.datastore = Datastore()
        # nspace -> rank -> node, and nspace -> every proc of the job.
        # Both are minted once by the launcher and shared by every
        # server of the world (read-only here).
        self.job_maps: Dict[str, Dict[int, int]] = {}
        self.job_procs: Dict[str, ProcSet] = {}
        self.local_clients: Dict[PmixProc, Any] = {}
        self.dead_procs: set = set()   # procs this server knows have died
        self.groups: Dict[str, GroupRecord] = {}
        self._collectives: Dict[Hashable, _LocalCollective] = {}
        self._event_regs: List[_EventRegistration] = []
        self._dmodex_pending: Dict[int, SimEvent] = {}
        self._dmodex_ids = itertools.count()
        self._busy_until = 0.0
        self._warm_kinds: set = set()   # "fence"/"group" ops done before
        daemon.pmix_server = self
        daemon.add_handler("dmodex_req", self._handle_dmodex_req)
        daemon.add_handler("dmodex_resp", self._handle_dmodex_resp)
        daemon.add_handler("event_fwd", self._handle_event_fwd)
        self._init_async_groups()

    # -- registration -------------------------------------------------------
    def register_namespace(
        self,
        nspace: str,
        procs: ProcSet,
        rank_to_node: Dict[int, int],
        job_info: Dict[str, Any],
    ) -> None:
        """Install the job's procs, job map and job-level info (done at
        launch on every node, with the same ``procs`` and map objects)."""
        self.job_procs[nspace] = procs
        self.job_maps[nspace] = rank_to_node
        for key, value in job_info.items():
            self.datastore.put_job(nspace, key, value)

    def deregister_namespace(self, nspace: str, cut: Optional[Dict] = None) -> None:
        """The job is over: forget its procs, its map, its data and the
        groups it formed (``cut``: see :meth:`Datastore.drop_namespace`)."""
        self.job_procs.pop(nspace, None)
        self.job_maps.pop(nspace, None)
        self.datastore.drop_namespace(nspace, cut)
        self.groups = {gid: record for gid, record in self.groups.items()
                       if not any(p.nspace == nspace for p in record.members)}

    def check_registered(self, nspace: str) -> None:
        """A client's own namespace is registered before the client
        exists, so it can only be missing because it was retired."""
        if nspace not in self.job_maps:
            raise PmixError(
                PMIX_ERR_NOT_FOUND,
                f"namespace {nspace} was retired: its Job was dropped while "
                f"ranks still use it")

    def register_client(self, client: Any) -> None:
        self.local_clients[client.proc] = client

    def deregister_client(self, proc: PmixProc) -> None:
        self.local_clients.pop(proc, None)
        self._event_regs = [r for r in self._event_regs if r.proc != proc]

    def node_of(self, proc: PmixProc) -> int:
        try:
            return self.job_maps[proc.nspace][proc.rank]
        except KeyError:
            raise PmixError(PMIX_ERR_NOT_FOUND, f"unknown process {proc}") from None

    def _node_has_live_participant(self, node: int, state) -> bool:
        """Does ``node`` host at least one participant of ``state`` this
        server does not know to be dead?  (Recovery-mode collectives wait
        only on nodes that can still contribute.)"""
        local = state.participants.by_node(self.node_of)[node]
        return any(p not in self.dead_procs for p in local)

    # -- stage-one collective rendezvous ---------------------------------------
    def _client_cost(self, kind: str) -> float:
        """Server-side processing per arriving client for one collective.

        First operation of each kind on this server is "cold": the server
        establishes internal state/connections (dominant in the paper's
        startup measurements); later operations are cheap.
        """
        warm = kind in self._warm_kinds
        m = self.machine
        if kind == "group":
            return m.group_client_cost_warm if warm else m.group_client_cost_cold
        return m.fence_client_cost_warm if warm else m.fence_client_cost_cold

    def collective_arrive(
        self,
        sig: Hashable,
        proc: PmixProc,
        participants: Optional[ProcSet],
        blob: Dict,
        need_context_id: bool = False,
        on_complete: Optional[Callable[[Any], None]] = None,
        kind: str = "fence",
    ) -> SimEvent:
        """A local client arrives at collective ``sig``.

        Returns the event that will succeed (with the grpcomm result)
        once stage three releases this client — or *fail* with a
        :class:`PmixError` if a participant died.  ``on_complete`` runs
        once per *server* when the inter-server exchange finishes (used
        to merge fence data / record groups); it is skipped on error.
        The server's CPU serializes arrival processing — this is stage
        one of the paper's hierarchy and the source of the per-ppn cost
        in Fig 3.
        """
        state = self._collectives.get(sig)
        if state is None:
            if participants is None:
                # Whole-namespace collective: the job's own proc set.
                participants = self.job_procs[proc.nspace]
            local = participants.by_node(self.node_of).get(self.node, ())
            state = _LocalCollective(
                sig=sig,
                participants=participants,
                need_context_id=need_context_id,
                on_complete=on_complete,
                kind=kind,
            )
            # Participants already known dead contribute a marker.
            state.aborted = {p for p in local if p in self.dead_procs}
            state.pending = set(local) - state.aborted
            self._collectives[sig] = state
            self._arm_fault_timer(state)
            tr = self.engine.tracer
            if tr.enabled:
                state.obs_span = tr.begin(
                    self.engine.now, track_for_daemon(self.node),
                    f"pmix.server.{kind}", nlocal=len(local),
                )
        if proc in state.arrived:
            raise PmixError(
                PMIX_ERR_NOT_FOUND, f"{proc} arrived twice at collective {sig!r}"
            )
        state.arrived[proc] = blob
        state.pending.discard(proc)
        ev = SimEvent()
        state.events[proc] = ev

        # Stage 1: the server processes this notification serially.
        self._busy_until = max(self.engine.now, self._busy_until) + self._client_cost(kind)

        self._maybe_launch(state)
        return ev

    def _maybe_launch(self, state: _LocalCollective) -> None:
        """Stage 2: launch the inter-server exchange once every local
        participant has either arrived or is known dead."""
        if state.launched or not state.arrived or state.pending:
            return
        state.launched = True
        self._warm_kinds.add(state.kind)
        m = self.engine.metrics
        if m is not None and m.enabled:
            m.observe(f"pmix.{state.kind}.fanin", len(state.arrived), node=self.node)
            m.inc(f"pmix.{state.kind}.collectives", node=self.node)
        entries: Dict = dict(state.arrived)
        for p in state.aborted:
            entries[p] = ABORTED_MARKER
        # Sized here, once; grpcomm adds sizes up from now on.
        contribution = SizedDict(entries)
        nodes = list(state.participants.by_node(self.node_of))
        # Nodes known dead cannot contribute; surviving daemons that have
        # heard the daemon_down announcement agree on the reduced set.
        nodes = [n for n in nodes if n == self.node or not self.daemon.is_node_down(n)]
        if self.daemon.grpcomm.recovery:
            # A live node whose local participants ALL died will never
            # launch this collective (no client is left to call in), so
            # waiting on its contribution would hang until the timeout.
            # Drop it; its procs simply come back absent from the merged
            # data, which the recovery layer treats as failure evidence
            # (docs/recovery.md).
            nodes = [n for n in nodes if n == self.node
                     or self._node_has_live_participant(n, state)]
        sig = state.sig

        def launch() -> None:
            if self._collectives.get(sig) is not state:
                return  # timed out / aborted while queued behind the CPU
            done = self.daemon.grpcomm.allgather(
                sig, nodes, contribution, need_context_id=state.need_context_id
            )

            def on_done(result, exc) -> None:
                if exc is not None:  # pragma: no cover
                    raise exc
                if self._collectives.get(sig) is not state:
                    return
                self._release(state, result)

            done.add_waiter(on_done)

        # Stage 2 starts once every local notification is processed.
        self.engine.post_at(max(self.engine.now, self._busy_until), launch)

    def _release(self, state: _LocalCollective, result) -> None:
        """Stage 3: release local clients one RPC at a time."""
        self._collectives.pop(state.sig, None)
        self._cancel_fault_timer(state)
        failed = []
        if getattr(result, "status", 0) == 0:
            failed = sorted(result.data.aborted)
        if getattr(result, "status", 0) != 0 or failed:
            status = getattr(result, "status", 0) or PMIX_ERR_PROC_ABORTED
            message = f"collective {state.sig!r} aborted"
            if failed:
                message += f"; dead participants: {', '.join(str(p) for p in failed)}"
            self._release_error(state, status, message, failed=failed)
            return
        if state.on_complete is not None:
            state.on_complete(result)
        release_cost = self.machine.local_rpc_cost
        release_at = max(self.engine.now, self._busy_until)
        tr = self.engine.tracer
        for proc, client_ev in state.events.items():
            release_at += release_cost
            # Stage 3 is a logical handoff (no wire message): record the
            # causality edge explicitly so the critical-path walk can
            # cross from the server timeline back to the client's.
            if tr.enabled:
                tr.flow("pmix.release", track_for_daemon(self.node),
                        self.engine.now, track_for_proc(proc), release_at)
            self.engine.post_at(release_at, partial(client_ev.succeed, result))
        self._busy_until = release_at
        if state.obs_span:
            tr.end(release_at, state.obs_span)

    def _release_error(
        self, state: _LocalCollective, status: int, message: str, failed=()
    ) -> None:
        """Release waiting clients with a typed error instead of hanging.

        ``failed`` names the dead participants (when known); it rides on
        the :class:`PmixError` so survivors can re-issue the collective
        with an evicted membership (docs/recovery.md).
        """
        faults = self.engine.tracer.enabled and self._faults()
        if faults:
            faults.trace("collective_error", node=self.node, sig=repr(state.sig),
                         status=status, kind=state.kind)
        release_cost = self.machine.local_rpc_cost
        release_at = max(self.engine.now, self._busy_until)
        tr = self.engine.tracer
        for proc, client_ev in state.events.items():
            if client_ev.triggered:
                continue
            release_at += release_cost
            if tr.enabled:
                tr.flow("pmix.release_error", track_for_daemon(self.node),
                        self.engine.now, track_for_proc(proc), release_at)
            self.engine.post_at(
                release_at,
                lambda e=client_ev: e.triggered
                or e.fail(PmixError(status, message, failed_procs=failed)),
            )
        self._busy_until = release_at
        if state.obs_span:
            tr.end(release_at, state.obs_span)

    # -- fault handling -----------------------------------------------------
    def _faults(self):
        return getattr(self.daemon.dvm, "faults", None)

    def _arm_fault_timer(self, state: _LocalCollective) -> None:
        """Bounded termination: once faults are active, no collective may
        wait forever — propagation races fail with PMIX_ERR_TIMEOUT."""
        faults = self._faults()
        if faults is None or not faults.active:
            return
        state.timer = self.engine.call_later(
            self.machine.fault_collective_timeout,
            lambda: self._collective_timeout(state),
        )

    def _cancel_fault_timer(self, state: _LocalCollective) -> None:
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None

    def _collective_timeout(self, state: _LocalCollective) -> None:
        if self._collectives.get(state.sig) is not state:
            return
        self._collectives.pop(state.sig, None)
        self.daemon.grpcomm.abort_sig(state.sig)
        self._release_error(
            state,
            PMIX_ERR_TIMEOUT,
            f"collective {state.sig!r} abandoned after "
            f"{self.machine.fault_collective_timeout}s under fault injection",
        )

    def client_aborted(self, proc: PmixProc, code: Optional[int] = None) -> None:
        """Home-server entry point for a local client's death.

        Marks the proc dead here, then broadcasts the failure event to
        every node (including this one) so registered handlers and the
        other servers learn about it.  ``code`` adds a second event with
        a caller-chosen status (compatibility with the legacy
        ``Cluster.fail_process``, which raised PROC_TERMINATED).
        """
        already = proc in self.dead_procs
        self._mark_proc_dead(proc)
        if already:
            return
        self.notify_event(PMIX_ERR_PROC_ABORTED, proc, {"reason": "process died"})
        if code is not None and code != PMIX_ERR_PROC_ABORTED:
            self.notify_event(code, proc, {"reason": "process died"})

    def _mark_proc_dead(self, proc: PmixProc) -> None:
        """Local bookkeeping for a death (idempotent, no broadcasting)."""
        if proc in self.dead_procs:
            return
        self.dead_procs.add(proc)
        self.local_clients.pop(proc, None)
        self._event_regs = [r for r in self._event_regs if r.proc != proc]
        self.psets.evict(proc)
        # A dead proc can no longer arrive at stage one: collectives
        # waiting on it launch now, contributing an aborted marker.
        for state in list(self._collectives.values()):
            if not state.launched and proc in state.pending:
                state.pending.discard(proc)
                state.aborted.add(proc)
                self._maybe_launch(state)

    def node_down(self, down: int) -> None:
        """A daemon died: evict its procs and notify local handlers.

        Called on every surviving daemon by the daemon_down xcast; the
        in-flight grpcomm instances are failed separately by
        :meth:`repro.prrte.grpcomm.GrpcommModule.node_down`.
        """
        victims = []
        for procs in self.job_procs.values():
            victims.extend(procs.by_node(self.node_of).get(down, ()))
        for proc in sorted(victims):
            already = proc in self.dead_procs
            self._mark_proc_dead(proc)
            if not already:
                # Local delivery only: every surviving server runs this
                # same handler, so no re-broadcast is needed.
                self._deliver_local_event(
                    PMIX_ERR_PROC_ABORTED, proc, {"reason": f"node {down} failed"}
                )

    # -- fence ---------------------------------------------------------------
    def fence_arrive(
        self,
        sig: Hashable,
        proc: PmixProc,
        participants: Optional[ProcSet],
        blob: Dict,
        collect: bool,
    ) -> SimEvent:
        def merge(result) -> None:
            if collect:
                self.datastore.merge_blobs(result.data)

        share = blob if collect else {}
        return self.collective_arrive(
            sig, proc, participants, share, on_complete=merge, kind="fence"
        )

    # -- groups ----------------------------------------------------------------
    def group_construct_arrive(
        self,
        sig: Hashable,
        gid: str,
        proc: PmixProc,
        participants: ProcSet,
        directives: Dict[str, Any],
    ) -> SimEvent:
        def record(result) -> None:
            # The members are whoever contributed, sorted: the canonical
            # participants themselves unless some came back absent.
            members = participants.canonical()
            if len(result.data) != len(members):
                members = ProcSet(sorted(result.data))
            self.groups[gid] = GroupRecord(
                gid=gid, members=members, pgcid=result.context_id
            )

        return self.collective_arrive(
            sig,
            proc,
            participants,
            {proc: True},
            need_context_id=True,
            on_complete=record,
            kind="group",
        )

    def group_destruct_arrive(
        self, sig: Hashable, gid: str, proc: PmixProc, participants: ProcSet
    ) -> SimEvent:
        def drop(result) -> None:
            self.groups.pop(gid, None)

        return self.collective_arrive(
            sig, proc, participants, {proc: True}, on_complete=drop, kind="group"
        )

    # -- direct modex -------------------------------------------------------------
    def request_remote(self, proc: PmixProc, key: str) -> SimEvent:
        """Fetch one remote rank's blob from its home server (dmodex)."""
        req_id = next(self._dmodex_ids)
        ev = SimEvent()
        self._dmodex_pending[req_id] = ev
        self.daemon.send(
            self.node_of(proc),
            "dmodex_req",
            {
                "req_id": req_id,
                "reply_to": self.node,
                "nspace": proc.nspace,
                "rank": proc.rank,
                "key": key,
            },
        )
        return ev

    def _handle_dmodex_req(self, msg) -> None:
        proc = PmixProc(msg.payload["nspace"], msg.payload["rank"])
        blob = self.datastore.rank_blob(proc)
        self.daemon.send(
            msg.payload["reply_to"],
            "dmodex_resp",
            {"req_id": msg.payload["req_id"], "proc": proc, "blob": blob},
        )

    def _handle_dmodex_resp(self, msg) -> None:
        ev = self._dmodex_pending.pop(msg.payload["req_id"], None)
        if ev is None:
            return
        self.datastore.merge_blob(msg.payload["proc"], msg.payload["blob"])
        ev.succeed(msg.payload["blob"])

    # -- events ----------------------------------------------------------------------
    def register_event_handler(
        self,
        proc: PmixProc,
        codes: Optional[List[int]],
        callback: Callable[[int, PmixProc, Dict], None],
    ) -> None:
        self._event_regs.append(
            _EventRegistration(proc=proc, codes=tuple(codes) if codes else None, callback=callback)
        )

    def notify_event(self, code: int, source: PmixProc, info: Dict[str, Any]) -> None:
        """Originate an event: forward to every daemon for local delivery."""
        for node in range(self.machine.num_nodes):
            self.daemon.send(node, "event_fwd", {"code": code, "source": source, "info": info})

    def _handle_event_fwd(self, msg) -> None:
        code = msg.payload["code"]
        source = msg.payload["source"]
        info = msg.payload["info"]
        if code in (PMIX_ERR_PROC_ABORTED, PMIX_ERR_PROC_TERMINATED):
            # Failure propagation: every server learns of the death from
            # the event itself, keeping liveness views consistent.
            self._mark_proc_dead(source)
        self._deliver_local_event(code, source, info)

    def _deliver_local_event(self, code: int, source: PmixProc, info: Dict) -> None:
        for reg in list(self._event_regs):
            if reg.codes is None or code in reg.codes:
                self.engine.call_later(
                    self.machine.local_rpc_cost,
                    lambda r=reg: r.callback(code, source, info),
                )

    # -- queries ------------------------------------------------------------------------
    def query_psets(self) -> Tuple[int, List[str]]:
        return self.psets.count(), self.psets.names()

    def query_pset_membership(self, name: str) -> Optional[ProcSet]:
        return self.psets.members(name)
