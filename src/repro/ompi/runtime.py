"""Per-process MPI library state and the two initialization models.

One :class:`MpiRuntime` per simulated process — the analogue of the
Open MPI library linked into an application.  It owns the communicator
tables, the instance lifecycle (paper §III-B5), the PML endpoint, and
implements:

* the World Process Model: :meth:`mpi_init` / :meth:`mpi_finalize`
  (restructured, as in the prototype, to wrap an internal session);
* the Sessions Process Model: :meth:`session_init` and
  :meth:`comm_create_from_group`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ompi.cid import CidTable
from repro.ompi.comm import Communicator
from repro.ompi.config import MpiConfig
from repro.ompi.constants import THREAD_SINGLE
from repro.ompi.errors import (
    ERRORS_ARE_FATAL,
    Errhandler,
    MPIErrArg,
    MPIErrComm,
    MPIErrIntern,
    MPIErrProcFailed,
    MPIErrSession,
)
from repro.ompi.excid import ExcidState
from repro.ompi.group import Group
from repro.ompi.instance import instance_acquire, instance_release
from repro.ompi.session import Session
from repro.pmix.types import PMIX_ERR_PROC_ABORTED, PMIX_ERR_TIMEOUT, PmixError
from repro.simtime.process import Sleep
from repro.simtime.trace import track_for_proc


class MpiRuntime:
    """The MPI library state of one simulated process."""

    # Reserved local CIDs for the built-in World Process Model comms.
    CID_WORLD = 0
    CID_SELF = 1

    # One record per simulated rank: slotted, because this many
    # attributes would otherwise cost every rank a 1.6 KB __dict__.
    __slots__ = (
        "cluster", "engine", "machine", "job", "fabric", "config",
        "rank_in_job", "proc", "node", "pmix",
        "endpoint", "cid_table", "_excid_index", "_early_excid_pkts",
        "_early_cid_pkts",
        "instance_refcount", "instance_up", "instance_epochs",
        "sessions", "world_session", "world_finalized",
        "thread_level", "COMM_WORLD", "COMM_SELF", "_binary_loaded",
        "live_comms", "_pending_revokes",
    )

    def __init__(self, cluster, job, fabric, rank: int, config: Optional[MpiConfig] = None) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.machine = cluster.machine
        self.job = job
        self.fabric = fabric
        self.config = config or MpiConfig.baseline()
        self.rank_in_job = rank
        self.proc = job.proc(rank)
        self.node = job.topology.node_of(rank)
        self.pmix = job.client(rank)

        # Messaging state (populated by the pml subsystem).
        self.endpoint = None
        self.cid_table = CidTable()
        self._excid_index: Dict[Tuple, Communicator] = {}
        self._early_excid_pkts: Dict[Tuple, List] = {}
        self._early_cid_pkts: Dict[int, List] = {}

        # Lifecycle (paper §III-B5; see repro.ompi.instance).
        self.instance_refcount = 0
        self.instance_up = False
        self.instance_epochs = 0
        self.sessions: List[Session] = []
        self.world_session: Optional[Session] = None
        self.world_finalized = False
        self.thread_level: Optional[int] = None
        self.COMM_WORLD: Optional[Communicator] = None
        self.COMM_SELF: Optional[Communicator] = None
        self._binary_loaded = False
        self.live_comms: List[Communicator] = []

        # Revocations that arrived before the matching communicator was
        # registered here (a same-node peer's revoke can beat the tail
        # of our own mpi_init) — applied, then discarded, at
        # register_comm time.  A set, made by the first such arrival.
        self._pending_revokes: Optional[set] = None

    # ------------------------------------------------------------------
    # small helpers used across the library
    # ------------------------------------------------------------------
    def reset_cid_state(self) -> None:
        """Called by pml cleanup: forget every communicator mapping."""
        self.cid_table = CidTable()
        self._excid_index.clear()
        self._early_excid_pkts.clear()
        self._early_cid_pkts.clear()
        self.live_comms.clear()

    @property
    def excid_enabled(self) -> bool:
        """Paper §III-B3: "The exCID generator is used exclusively when
        using a version of PMIx that supports group creation and the ob1
        PML is in use.  In all other cases, the prototype falls back to
        the original consensus algorithm." """
        return self.config.cid_mode == "excid" and self.config.pml == "ob1"

    @property
    def failed_procs(self) -> set:
        """Peers this rank's library knows are dead.  Every library of a
        cluster is told of a death at the same instant (one detection
        latency), so the knowledge is the fault manager's, not a copy per
        rank; communicators created after a failure inherit it via their
        constructor (docs/faults.md)."""
        return self.cluster.faults.detected

    def wtime(self) -> float:
        """MPI_Wtime: the simulated clock in seconds."""
        return self.engine.now

    # -- communicator registry -------------------------------------------------
    def register_comm(self, comm: Communicator) -> None:
        self.cid_table.reserve(comm.local_cid, comm)
        self.live_comms.append(comm)
        if self._pending_revokes and comm.identity() in self._pending_revokes:
            self._pending_revokes.discard(comm.identity())
            comm._apply_revoke()
        if comm.excid is not None:
            key = comm.excid.key()
            if key in self._excid_index:
                raise MPIErrIntern(f"exCID collision on {comm.excid}")
            self._excid_index[key] = comm
            for pkt in self._early_excid_pkts.pop(key, []):
                self.endpoint.deliver_user(pkt)
        for pkt in self._early_cid_pkts.pop(comm.local_cid, []):
            self.endpoint.deliver_user(pkt)

    def deregister_comm(self, comm: Communicator) -> None:
        if self.endpoint is not None:
            self.endpoint.matching.drop_comm(comm.local_cid)
        self.cid_table.release(comm.local_cid)
        if comm.excid is not None:
            self._excid_index.pop(comm.excid.key(), None)
            self._early_excid_pkts.pop(comm.excid.key(), None)
        # Drop any packets stashed under this local CID: replaying them
        # into a future communicator that reuses the index would be a
        # silent wrong-communicator delivery.
        self._early_cid_pkts.pop(comm.local_cid, None)
        self.live_comms = [c for c in self.live_comms if c is not comm]

    # -- fault notification ----------------------------------------------------
    def peer_failed(self, proc) -> None:
        """A peer process died: damage every communicator containing it.

        Called by the FaultManager once the failure-detection delay has
        elapsed (mirrors the PMIx PROC_ABORTED event reaching the RTE
        thread in real Open MPI).
        """
        if proc == self.proc:
            return
        if self.endpoint is not None:
            self.endpoint.peer_failed(proc)
        for comm in list(self.live_comms):
            rank = comm.group.rank_of(proc)
            if rank >= 0:
                comm.peer_failed(rank, proc)

    def remote_revoke(self, identity: str) -> None:
        """A peer revoked a communicator: apply the revocation to the
        matching live communicator here (docs/recovery.md).  ``identity``
        is the globally consistent comm identity, so this is safe even
        when local CIDs differ across ranks."""
        for comm in list(self.live_comms):
            if not comm.freed and comm.identity() == identity:
                comm._apply_revoke()
                return
        # Not registered yet (we may still be in the tail of mpi_init):
        # park the revocation for register_comm to apply.
        if self._pending_revokes is None:
            self._pending_revokes = set()
        self._pending_revokes.add(identity)

    def comm_by_excid(self, key: Tuple) -> Optional[Communicator]:
        return self._excid_index.get(key)

    def stash_early_packet(self, key: Tuple, pkt) -> None:
        self._early_excid_pkts.setdefault(key, []).append(pkt)

    def stash_early_cid_packet(self, cid: int, pkt) -> None:
        self._early_cid_pkts.setdefault(cid, []).append(pkt)

    @property
    def obs_track(self) -> str:
        """This rank's trace timeline (built only when tracing)."""
        return track_for_proc(self.proc)

    # ------------------------------------------------------------------
    # shared startup pieces
    # ------------------------------------------------------------------
    def _load_binary(self):
        """Sub-generator: one-time library load from the (NFS) filesystem."""
        if self._binary_loaded:
            return
        self._binary_loaded = True
        tr = self.engine.tracer
        sid = tr.enabled and tr.begin(self.engine.now, self.obs_track,
                                      "ompi.init.load_binary")
        yield Sleep(self.machine.nfs_load_time(self.job.num_ranks))
        if sid:
            tr.end(self.engine.now, sid)

    def _pmix_up(self):
        if not self.pmix.initialized:
            yield from self.pmix.init()

    # ------------------------------------------------------------------
    # World Process Model
    # ------------------------------------------------------------------
    @property
    def wpm_initialized(self) -> bool:
        return self.world_session is not None

    def mpi_init(self, thread_level: int = THREAD_SINGLE):
        """Sub-generator: MPI_Init / MPI_Init_thread.

        Returns MPI_COMM_WORLD.  Per MPI-3 rules this cannot be called
        twice nor after MPI_Finalize — the very restriction sessions
        remove (§II-A); enforced here to keep the baseline honest.
        """
        if self.wpm_initialized:
            raise MPIErrArg("MPI_Init called twice")
        if self.world_finalized:
            raise MPIErrArg("MPI cannot be re-initialized after MPI_Finalize")
        tr = self.engine.tracer
        sid = tr.enabled and tr.begin(self.engine.now, self.obs_track, "ompi.mpi.init")
        yield from self._load_binary()
        yield from self._pmix_up()
        yield Sleep(self.machine.proc_local_init)
        yield from instance_acquire(self)
        self.thread_level = thread_level

        # add_procs for node-local peers only (lazy discovery elsewhere).
        local = self.job.topology.ranks_on_node(self.node)
        sid_ap = tr.enabled and tr.begin(self.engine.now, self.obs_track,
                                         "ompi.pml.add_procs_local", nlocal=len(local))
        yield Sleep(self.machine.add_procs_local_cost * len(local))
        if sid_ap:
            tr.end(self.engine.now, sid_ap)
        self.endpoint.add_procs(
            self.job.all_procs.by_node(self.pmix.server.node_of)[self.node])

        # Business-card exchange (modex) over the whole job.
        yield from self.pmix.fence(collect=self.config.modex_collect)

        self.world_session = Session(self, thread_level, internal=True)
        self.sessions.append(self.world_session)

        world_group = Group(self.job.all_procs)
        self.COMM_WORLD = Communicator(
            self, world_group, self.CID_WORLD, name="MPI_COMM_WORLD",
            session=self.world_session,
        )
        self.register_comm(self.COMM_WORLD)
        self.COMM_SELF = Communicator(
            self, Group([self.proc]), self.CID_SELF, name="MPI_COMM_SELF",
            session=self.world_session,
        )
        self.register_comm(self.COMM_SELF)
        if sid:
            tr.end(self.engine.now, sid)
        return self.COMM_WORLD

    def mpi_finalize(self):
        """Sub-generator: MPI_Finalize."""
        if not self.wpm_initialized:
            raise MPIErrArg("MPI_Finalize without MPI_Init")
        tr = self.engine.tracer
        sid = tr.enabled and tr.begin(self.engine.now, self.obs_track, "ompi.mpi.finalize")
        # Implicit synchronization (ompi fences in finalize).
        yield from self.pmix.fence(collect=False)
        for comm in (self.COMM_SELF, self.COMM_WORLD):
            if comm is not None and not comm.freed:
                comm.free()
        self.COMM_WORLD = None
        self.COMM_SELF = None
        world = self.world_session
        self.sessions.remove(world)
        self.world_session = None
        self.world_finalized = True
        world.mark_finalized()
        yield from instance_release(self)
        yield from self._maybe_pmix_down()
        if sid:
            tr.end(self.engine.now, sid)

    def _maybe_pmix_down(self):
        if not self.sessions and self.pmix.initialized:
            yield from self.pmix.finalize()

    # ------------------------------------------------------------------
    # Sessions Process Model
    # ------------------------------------------------------------------
    def session_init(
        self,
        thread_level: int = THREAD_SINGLE,
        info=None,
        errhandler: Errhandler = ERRORS_ARE_FATAL,
    ):
        """Sub-generator: MPI_Session_init — local-only, repeatable.

        The first session of an epoch pays the MPI-resource
        initialization the paper measures as ~30% of the sessions
        startup path at 28 ppn (session_handle_init_cost); later
        sessions reuse live subsystems.
        """
        tr = self.engine.tracer
        sid = tr.enabled and tr.begin(self.engine.now, self.obs_track, "ompi.session.init")
        yield from self._load_binary()
        yield from self._pmix_up()
        if not self.instance_up:    # the first session of an epoch
            yield Sleep(self.machine.proc_local_init)
            yield Sleep(self.machine.session_handle_init_cost)
        yield from instance_acquire(self)
        if self.thread_level is None or thread_level > self.thread_level:
            self.thread_level = thread_level
        session = Session(self, thread_level, info=info, errhandler=errhandler)
        self.sessions.append(session)
        m = self.engine.metrics
        if m is not None and m.enabled:
            m.inc("ompi.session.inits", node=self.node)
        if sid:
            tr.end(self.engine.now, sid)
        return session

    def session_finalize(self, session: Session):
        """Sub-generator: MPI_Session_finalize (called via session)."""
        if session not in self.sessions:
            raise MPIErrSession("session already finalized (or foreign)")
        leaked = [c for c in self.live_comms if c.session is session and not c.freed]
        if leaked:
            raise MPIErrPendingComms(leaked)
        tr = self.engine.tracer
        sid = tr.enabled and tr.begin(self.engine.now, self.obs_track,
                                      "ompi.session.finalize")
        self.sessions.remove(session)
        session.mark_finalized()
        yield from instance_release(self)
        yield from self._maybe_pmix_down()
        if sid:
            tr.end(self.engine.now, sid)

    def comm_create_from_group(
        self,
        group: Group,
        stringtag: str,
        info=None,
        errhandler: Errhandler = ERRORS_ARE_FATAL,
    ):
        """Sub-generator: MPI_Comm_create_from_group (paper Fig 1, step 3).

        Collective over the group's processes; all participants must
        pass the same ``stringtag``.  Requires the exCID generator (the
        constructor has no parent communicator — §III-B3).
        """
        if not self.excid_enabled:
            raise MPIErrComm(
                "MPI_Comm_create_from_group requires the exCID generator, "
                "which needs PMIx group support and the ob1 PML "
                f"(cid_mode={self.config.cid_mode!r}, pml={self.config.pml!r}); "
                "the legacy consensus algorithm needs a parent communicator"
            )
        if self.instance_refcount == 0:
            raise MPIErrSession("no active session")
        if group.rank_of(self.proc) < 0:
            raise MPIErrArg("caller must be a member of the group")
        gid = f"cfg:{stringtag}"
        tr = self.engine.tracer
        sid = tr.enabled and tr.begin(self.engine.now, self.obs_track,
                                      "ompi.comm.create_from_group",
                                      stringtag=stringtag, nprocs=group.size)
        try:
            pgcid = yield from self.pmix.group_construct(gid, group.members())
        except PmixError as err:
            if sid:
                tr.end(self.engine.now, sid)
            if err.status in (PMIX_ERR_PROC_ABORTED, PMIX_ERR_TIMEOUT):
                mpi_err = MPIErrProcFailed(
                    f"comm_create_from_group({stringtag!r}) aborted: "
                    f"a group member failed ({err})"
                )
                (errhandler or ERRORS_ARE_FATAL).invoke(self, mpi_err)
            raise
        m = self.engine.metrics
        if m is not None and m.enabled:
            m.inc("ompi.comm.creates", node=self.node)
        comm = Communicator(
            self,
            Group(group.members()),     # its own handle (see Group.free)
            self.cid_table.lowest_free(),
            excid_state=ExcidState.from_pgcid(pgcid),
            name=f"comm({stringtag})",
            session=getattr(group, "session", None),
        )
        if errhandler is not None:
            comm.errhandler = errhandler
        self.register_comm(comm)
        if sid:
            tr.end(self.engine.now, sid)
        return comm


class MPIErrPendingComms(MPIErrSession):
    """Session finalized while communicators derived from it are alive."""

    def __init__(self, comms) -> None:
        names = ", ".join(c.name for c in comms)
        super().__init__(f"session has live communicators: {names}")
        self.comms = comms
