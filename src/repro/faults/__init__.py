"""Fault injection across the simulated stack (see docs/faults.md).

The :class:`FaultManager` is the runtime half of fault injection: it
owns the installed :class:`~repro.simtime.faults.FaultPlan`, executes
kills, tracks which procs/nodes are dead, and is consulted by the two
message fault points:

* the PRRTE RML (``layer="rml"``) for daemon-to-daemon traffic, and
* the ob1 fabric (``layer="pml"``) for MPI point-to-point packets.

Failure propagation it drives:

* ``kill_rank`` — kills the rank's simulated process, tells its home
  PMIx server (which evicts it from psets, aborts local collectives it
  was part of, and broadcasts a ``PMIX_ERR_PROC_ABORTED`` event to every
  node), and notifies registered MPI runtimes after a small detection
  latency so communicators can raise typed ``ProcFailed`` errors.
* ``kill_node`` — marks the daemon dead (the RML silently drops traffic
  to/from dead nodes), kills the node's rank processes, and schedules a
  ``daemon_down`` announcement from the HNP that fans out over a radix
  tree, letting surviving daemons fail in-flight grpcomm instances and
  evict the node's procs.

Everything is scheduled on the simulation engine, so runs stay
deterministic: same seed + same plan = same event sequence.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Optional

from repro.pmix.types import PMIX_ERR_PROC_ABORTED, PmixProc
from repro.simtime.faults import (  # re-exported: the public fault API
    Disposition,
    FaultAction,
    FaultPlan,
    MsgView,
    random_plan,
)

__all__ = [
    "Disposition",
    "FaultAction",
    "FaultManager",
    "FaultPlan",
    "MsgView",
    "random_plan",
]


class FaultManager:
    """Per-cluster fault state: the plan, the dead, and the fault points."""

    def __init__(self, cluster) -> None:
        # The pieces of the cluster it acts on, never the cluster: the
        # cluster owns this manager, not the other way round.
        self.engine = cluster.engine
        self.machine = cluster.machine
        self.dvm = cluster.dvm
        self.servers = cluster.servers
        self.plan: Optional[FaultPlan] = None
        # (nspace, topology) of the job a plan's ``kill_proc`` names, bound
        # by Cluster.launch.  Not the Job: that would keep it registered.
        self.default_job: Optional[tuple] = None
        self.dead_procs: set = set()       # PmixProc
        self.dead_nodes: set = set()       # node ids
        # What a kill acts on: a rank's SimProcess for as long as its job
        # is registered (a kill of a finished rank still names its span),
        # its MpiRuntime while its MPI instance is up.  A job that is gone
        # leaves nothing here (:meth:`forget_namespace`).
        self._rank_procs: Dict[PmixProc, Any] = {}   # PmixProc -> SimProcess
        self._runtimes: Dict[PmixProc, Any] = {}     # PmixProc -> MpiRuntime
        # Deaths the MPI libraries of this cluster know of: all of them
        # learn at the same instant (one detection latency), initialized
        # or not, so this is ``MpiRuntime.failed_procs`` for every rank.
        self.detected: set = set()
        # MPI ranks launched here, per registered namespace.  A death
        # costs one logical notification event per rank, initialized or
        # not at the time.
        self.mpi_ranks: Dict[str, int] = {}
        self.stats: Counter = Counter()
        # Once any fault has happened (or a plan is installed), servers
        # arm per-collective timeout timers so no protocol race can hang
        # the simulation — see docs/faults.md "bounded termination".
        self.active = False
        # Partition context under repro.dsim (None = single-process).
        # Kills execute fully in the owner partition; everywhere else
        # only the replicated liveness bookkeeping runs (dead sets,
        # daemon.alive, local-runtime notification) so sender-side fault
        # checks in remote partitions see deaths at the exact same
        # simulated time as the single-process reference.
        self.dsim = None

    def _owns_kill(self, act: "FaultAction") -> bool:
        """Whether this partition owns the kill target (dsim mode)."""
        if self.dsim is None:
            return True
        if act.kind == "kill_node":
            return self.dsim.owns_node(act.node)
        if self.default_job is None:
            return self.dsim.pid == 0
        return self.dsim.owns_node(self.default_job[1].node_of(act.rank))

    # -- wiring ------------------------------------------------------------
    def install(self, plan: FaultPlan) -> None:
        """Install a plan; timed kills are scheduled immediately."""
        if self.plan is not None:
            raise RuntimeError("a FaultPlan is already installed on this cluster")
        self.plan = plan
        self.active = True
        if self.engine.tracer.enabled and (self.dsim is None or self.dsim.pid == 0):
            self.trace("plan_installed", plan=plan.describe())
        for act in plan.timed_kills():
            when = max(self.engine.now, act.at_time)
            if self._owns_kill(act):
                self.engine.post_at(when, lambda a=act: self._execute(a))
            else:
                # Non-owner partitions replicate the bookkeeping at the
                # same instant but must not perturb the logical event
                # count: the charge_events(-1) cancels this entry's +1.
                def run_silent(a=act):
                    self.engine.charge_events(-1)
                    self._execute(a)
                self.engine.post_at(when, run_silent)

    def trace(self, event: str, **detail) -> None:
        self.engine.tracer.event(self.engine.now, "events:faults",
                                 f"faults.{event}", **detail)

    def register_runtime(self, runtime) -> None:
        """The rank's MPI instance came up: it is told of peer deaths
        until :meth:`deregister_runtime` (its last release)."""
        self._runtimes[runtime.proc] = runtime

    def deregister_runtime(self, runtime) -> None:
        self._runtimes.pop(runtime.proc, None)

    def register_rank_proc(self, proc: PmixProc, sim_proc) -> None:
        """``sim_proc`` is what a kill of ``proc`` terminates."""
        self._rank_procs[proc] = sim_proc

    def forget_namespace(self, nspace: str) -> None:
        """The job is gone (``Launcher.retire``): so is what a kill of
        one of its ranks would have acted on, and its share of the
        ranks a death is announced to."""
        self.mpi_ranks.pop(nspace, None)
        for table in (self._rank_procs, self._runtimes):
            for proc in [p for p in table if p.nspace == nspace]:
                del table[proc]

    # -- queries -----------------------------------------------------------
    def is_dead_proc(self, proc: PmixProc) -> bool:
        return proc in self.dead_procs

    def is_dead_node(self, node: int) -> bool:
        return node in self.dead_nodes

    def daemon_alive(self, node: int) -> bool:
        return node not in self.dead_nodes

    # -- message fault points ---------------------------------------------
    def on_message(self, layer: str, src, dst, tag, fid: int = 0) -> Optional[Disposition]:
        """Consult the plan for one message; executes triggered kills.

        ``fid`` is the message's observability flow id (0 = untraced);
        it is attached to every emitted ``faults.*`` event so dropped or
        duplicated packets can be located on the exported timeline.
        """
        plan = self.plan
        if plan is None or not plan.msg_actions_for(layer):
            return None
        view = MsgView(layer=layer, src=src, dst=dst, tag=tag, time=self.engine.now)
        disp = plan.on_message(view)
        if not disp:
            return None
        for kind in disp.matched:
            # Kill kinds are counted by kill_rank/kill_node themselves.
            if kind not in ("kill_proc", "kill_node"):
                self.stats[kind] += 1
        if self.engine.tracer.enabled:
            self.trace(
                "msg_fault", layer=layer, src=str(src), dst=str(dst),
                tag=str(tag), matched=tuple(disp.matched), flow=fid,
            )
            # One event per message-fault kind, so each injected action is
            # individually visible in the timeline next to its flow arrow.
            for kind in disp.matched:
                if kind in ("drop_msg", "delay_msg", "dup_msg"):
                    self.trace(kind, layer=layer, src=str(src), dst=str(dst),
                               tag=str(tag), flow=fid)
        for act in disp.kills:
            self._execute(act)
        return disp

    def dead_drop(self, layer: str, src, dst, fid: int = 0) -> None:
        """Account for a message silently dropped at a dead endpoint."""
        self.stats["dead_drop"] += 1
        if self.engine.tracer.enabled:
            self.trace("dead_drop", layer=layer, src=str(src), dst=str(dst),
                       flow=fid)

    # -- kill execution ----------------------------------------------------
    def _execute(self, act: FaultAction) -> None:
        if act.kind == "kill_proc":
            if self.default_job is None:
                if self.engine.tracer.enabled:
                    self.trace("kill_skipped", reason="no job bound", rank=act.rank)
                return
            nspace, topology = self.default_job
            self._kill(PmixProc(nspace, act.rank), topology.node_of(act.rank))
        else:
            self.kill_node(act.node)

    def kill_rank(self, job, rank: int, sim_proc=None, code: Optional[int] = None,
                  reason: str = "injected failure") -> None:
        """Kill one rank: SimProcess, PMIx liveness, event broadcast.

        ``code`` overrides the event status broadcast to handlers
        (``Cluster.fail_process`` passes ``PMIX_ERR_PROC_TERMINATED``
        for backward compatibility); the server always marks the proc
        dead either way.
        """
        self._kill(job.proc(rank), job.topology.node_of(rank), sim_proc, code, reason)

    def _kill(self, proc: PmixProc, node: int, sim_proc=None,
              code: Optional[int] = None, reason: str = "injected failure") -> None:
        rank = proc.rank
        if proc in self.dead_procs:
            return
        self.active = True
        self.dead_procs.add(proc)
        if self.dsim is not None and not self.dsim.owns_node(node):
            # Remote kill: replicate liveness only.  Stats, traces, the
            # SimProcess kill and the PMIx abort belong to the owner;
            # local MPI runtimes still learn of the death here.
            self._notify_runtimes(proc)
            return
        self.stats["kill_proc"] += 1
        sim = sim_proc if sim_proc is not None else self._rank_procs.get(proc)
        if self.engine.tracer.enabled:
            self.trace("kill_proc", proc=str(proc), rank=rank, reason=reason,
                       span=getattr(sim, "obs_span", 0) if sim else 0)
        if sim is not None:
            sim.kill(f"fault injection: {reason} (rank {rank})")
        self.servers[node].client_aborted(proc, code=code)
        self._notify_runtimes(proc)

    def kill_node(self, node: int, reason: str = "injected node failure") -> None:
        """Kill a whole node: daemon, PMIx server, and its rank processes."""
        dvm = self.dvm
        if node == dvm.hnp_node:
            raise ValueError(
                "cannot kill the HNP node (node 0): the model has no HNP "
                "failover, see docs/faults.md"
            )
        if node in self.dead_nodes:
            return
        self.active = True
        self.dead_nodes.add(node)
        owner = self.dsim is None or self.dsim.owns_node(node)
        if owner:
            self.stats["kill_node"] += 1
            if self.engine.tracer.enabled:
                self.trace("kill_node", node=node, reason=reason)
        daemon = dvm.daemon_for(node)
        daemon.alive = False

        # Every proc hosted on the node dies with it.  The dead node's
        # own server does no broadcasting — survivors learn through the
        # HNP's daemon_down announcement below.
        victims = []
        server = self.servers[node]
        for nspace, rank_map in server.job_maps.items():
            for rank, home in rank_map.items():
                if home == node:
                    victims.append(PmixProc(nspace, rank))
        for proc in sorted(victims):
            if proc in self.dead_procs:
                continue
            self.dead_procs.add(proc)
            sim = self._rank_procs.get(proc)
            if sim is not None:
                sim.kill(f"fault injection: node {node} died")
            self._notify_runtimes(proc)

        # Failure detection: after the detect latency the HNP notices the
        # lost daemon and xcasts daemon_down over the routing tree.  The
        # announcement is the HNP's event: under dsim only the partition
        # owning the HNP schedules it (the xcast reaches every other
        # partition's daemons as ordinary cross-partition RML traffic).
        if self.dsim is None or self.dsim.owns_node(dvm.hnp_node):
            self.engine.call_later(
                self.machine.daemon_failure_detect,
                lambda: dvm.announce_daemon_down(node),
            )

    # -- MPI-runtime notification ------------------------------------------
    def _notify_runtimes(self, proc: PmixProc) -> None:
        ranks = sum(self.mpi_ranks.values())
        if not ranks:
            return

        def notify() -> None:
            self.engine.charge_events(ranks - 1)
            self.detected.add(proc)
            # In process order, whatever order the instances came up in.
            for _peer, runtime in sorted(self._runtimes.items()):
                runtime.peer_failed(proc)

        self.engine.post_at(
            self.engine.now + self.machine.daemon_failure_detect, notify)
