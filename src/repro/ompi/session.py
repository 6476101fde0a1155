"""MPI Sessions (paper Fig 1 flow).

A :class:`Session` identifies one stream of MPI usage.  It is created
by ``MPI_Session_init`` (:meth:`repro.ompi.runtime.MpiRuntime.session_init`
— local, light-weight, repeatable, thread-safe by construction in the
simulator), queried for *process sets*, turned into MPI Groups with
:meth:`group_from_pset`, and finalized independently of any other
session.

The prototype's three default process sets are implemented here:
``mpi://world`` (every process of the job), ``mpi://self``, and
``mpi://shared`` (the node-local processes).  Additional sets come from
the PMIx/PRRTE registry (:meth:`get_num_psets` queries
``PMIX_QUERY_PSET_NAMES`` under the hood).
"""

from __future__ import annotations

import itertools

from repro.ompi.constants import THREAD_LEVEL_NAMES
from repro.ompi.errors import (
    ERRORS_ARE_FATAL,
    Errhandler,
    MPIErrArg,
    MPIErrSession,
)
from repro.ompi.group import Group
from repro.pmix.types import PMIX_QUERY_PSET_NAMES, PmixError, ProcSet

BUILTIN_PSETS = ("mpi://world", "mpi://self", "mpi://shared")


class Session:
    """An MPI Session handle."""

    _ids = itertools.count()

    def __init__(
        self,
        runtime,
        thread_level: int,
        info=None,
        errhandler: Errhandler = ERRORS_ARE_FATAL,
        internal: bool = False,
    ) -> None:
        self.runtime = runtime
        self.thread_level = thread_level
        self.info = info
        self.errhandler = errhandler
        self.internal = internal            # the session backing MPI_Init
        self.handle_id = next(self._ids)
        self.finalized = False
        # After re_query_psets() the session's pset views exclude
        # processes known to have failed (docs/recovery.md), so a
        # comm_create_from_group over a re-queried pset spans only
        # survivors.
        self._failed_excluded = False

    # ------------------------------------------------------------------
    def _check(self) -> None:
        if self.finalized:
            raise MPIErrSession(f"session {self.handle_id} used after finalize")

    def mark_finalized(self) -> None:
        self.finalized = True

    def get_info(self):
        """MPI_Session_get_info: a new :class:`~repro.ompi.info.Info`
        holding the session's hints — the user's, and the
        ``thread_level`` it provides (MPI-4.0 §11.3)."""
        self._check()
        from repro.ompi.info import Info

        info = Info(dict(self.info.items()) if self.info is not None else None)
        info.set("thread_level", THREAD_LEVEL_NAMES[self.thread_level])
        return info

    def set_errhandler(self, handler: Errhandler) -> None:
        """MPI_Session_set_errhandler."""
        self._check()
        self.errhandler = handler

    def call_errhandler(self, error) -> None:
        """MPI_Session_call_errhandler: run this session's handler on
        ``error`` (e.g. a :class:`~repro.ompi.errors.MPIErrProcFailed`
        from fault injection).  A user handler that returns lets the
        call return (MPI-4.0 §9.3.4); the predefined handlers abort
        (``ERRORS_ARE_FATAL``) or raise (``ERRORS_RETURN``)."""
        self._check()
        handler = self.errhandler
        if handler.fn is not None:
            handler.fn(self, error)
        else:
            handler.invoke(self, error)

    # ------------------------------------------------------------------
    # process sets
    # ------------------------------------------------------------------
    def _runtime_pset_names(self):
        """Sub-generator: names from the PMIx registry."""
        out = yield from self.runtime.pmix.query([PMIX_QUERY_PSET_NAMES])
        return list(out[PMIX_QUERY_PSET_NAMES])

    def get_num_psets(self):
        """Sub-generator: MPI_Session_get_num_psets."""
        self._check()
        names = yield from self._runtime_pset_names()
        return len(BUILTIN_PSETS) + len(names)

    def get_nth_pset(self, n: int):
        """Sub-generator: MPI_Session_get_nth_pset."""
        self._check()
        names = list(BUILTIN_PSETS) + (yield from self._runtime_pset_names())
        if not 0 <= n < len(names):
            raise MPIErrArg(f"pset index {n} out of range (have {len(names)})")
        return names[n]

    def get_pset_info(self, name: str):
        """Sub-generator: MPI_Session_get_pset_info — a new
        :class:`~repro.ompi.info.Info` whose ``mpi_size`` is the set's
        size as a decimal string (MPI-4.0 §11.3.2)."""
        self._check()
        members = yield from self._pset_members(name)
        from repro.ompi.info import Info

        return Info({"mpi_size": str(len(members))})

    def re_query_psets(self):
        """Sub-generator: refresh this session's process-set view after
        failures (docs/recovery.md).

        Re-queries the PMIx registry (whose psets the servers already
        evicted dead procs from) and flips the session into
        failure-excluding mode: from now on every pset resolution —
        including the builtin ``mpi://`` sets, which are otherwise
        static — filters out processes the runtime knows have failed.
        Returns the refreshed pset name list.
        """
        self._check()
        tr = self.runtime.engine.tracer
        sid = tr.enabled and tr.begin(self.runtime.engine.now, self.runtime.obs_track,
                                      "recovery.session.re_query_psets")
        self._failed_excluded = True
        names = yield from self._runtime_pset_names()
        if sid:
            tr.end(self.runtime.engine.now, sid)
        self.runtime.cluster.recovery_stats["pset_requery"] += 1
        return list(BUILTIN_PSETS) + names

    def _pset_members(self, name: str):
        """Sub-generator: the :class:`ProcSet` a pset name stands for —
        the world's or the registry's own value (shared by every rank
        that resolves the name) unless failed processes are filtered
        out of it, which mints a new one."""
        job = self.runtime.job
        if name == "mpi://world":
            members = job.all_procs
        elif name == "mpi://self":
            members = ProcSet([self.runtime.proc])
        elif name == "mpi://shared":
            local = job.topology.ranks_on_node(self.runtime.node)
            members = ProcSet(job.proc(r) for r in local)
        else:
            try:
                members = yield from self.runtime.pmix.pset_membership(name)
            except PmixError:
                raise MPIErrArg(f"unknown process set {name!r}") from None
        if self._failed_excluded:
            failed = getattr(self.runtime, "failed_procs", set())
            me = self.runtime.proc
            live = [p for p in members if p not in failed or p == me]
            if len(live) != len(members):
                members = ProcSet(live)
        return members

    def group_from_pset(self, name: str):
        """Sub-generator: MPI_Group_from_session_pset — local + light."""
        self._check()
        tr = self.runtime.engine.tracer
        sid = tr.enabled and tr.begin(self.runtime.engine.now, self.runtime.obs_track,
                                      "ompi.session.group_from_pset", pset=name)
        members = yield from self._pset_members(name)
        if sid:
            tr.end(self.runtime.engine.now, sid)
        group = Group(members)
        group.session = self
        return group

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def finalize(self):
        """Sub-generator: MPI_Session_finalize."""
        self._check()
        if self.internal:
            raise MPIErrSession("the World-Process-Model session is finalized via MPI_Finalize")
        yield from self.runtime.session_finalize(self)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "internal" if self.internal else "user"
        state = "finalized" if self.finalized else "active"
        return f"<Session #{self.handle_id} {kind} {state}>"
