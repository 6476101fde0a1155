"""prun-style job launcher.

Creates a namespace for the job, replicates the job map and job-level
info to every node's PMIx server, registers runtime-defined process
sets, and instantiates one PMIx client per rank.  The MPI layer builds
its world on top of the returned :class:`Job`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.machine.topology import Topology
from repro.pmix.client import PmixClient
from repro.pmix.types import (
    PMIX_JOB_SIZE,
    PMIX_LOCAL_PEERS,
    PMIX_UNIV_SIZE,
    PmixProc,
    ProcSet,
)
from repro.prrte.dvm import DVM
from repro.prrte.psets import PsetRegistry


@dataclass
class JobSpec:
    """What prun was asked to start."""

    num_ranks: int
    ppn: int
    psets: Dict[str, Sequence[int]] = field(default_factory=dict)  # name -> ranks
    nspace: Optional[str] = None


@dataclass
class Job:
    nspace: str
    topology: Topology
    clients: List[PmixClient]
    # One shared identifier object per rank (process ids are hashed on
    # every message and collective, so they are interned per job), in
    # one shared ProcSet: the value ``mpi://world`` groups, whole-job
    # fences and every PMIx server of the world hold, never a copy.
    all_procs: ProcSet
    # Who registered the namespace and the process sets defined with it:
    # both stay registered for as long as this job is referenced.
    launcher: Optional["Launcher"] = None
    psets: Tuple[str, ...] = ()

    def __del__(self) -> None:
        if self.launcher is not None:
            self.launcher.retire(self.nspace, self.psets)

    @property
    def num_ranks(self) -> int:
        return self.topology.num_ranks

    def proc(self, rank: int) -> PmixProc:
        return self.all_procs[rank]

    def client(self, rank: int) -> PmixClient:
        return self.clients[rank]


class Launcher:
    """Maps a :class:`JobSpec` onto a booted :class:`DVM`."""

    def __init__(self, dvm: DVM, psets: PsetRegistry) -> None:
        self.dvm = dvm
        self.psets = psets

    def launch(self, spec: JobSpec) -> Job:
        topo = Topology(spec.num_ranks, spec.ppn)
        if topo.num_nodes > self.dvm.machine.num_nodes:
            raise ValueError(
                f"job needs {topo.num_nodes} nodes but machine has "
                f"{self.dvm.machine.num_nodes}"
            )
        nspace = spec.nspace or self.dvm.next_job_name()
        procs = ProcSet(PmixProc(nspace, r) for r in range(topo.num_ranks))
        rank_to_node = {r: topo.node_of(r) for r in range(topo.num_ranks)}
        job_info = {
            PMIX_JOB_SIZE: topo.num_ranks,
            PMIX_UNIV_SIZE: topo.num_ranks,
            "pmix.node.map": rank_to_node,
        }
        clients: List[PmixClient] = []
        for node in range(topo.num_nodes):
            server = self.dvm.server_for(node)
            local_ranks = topo.ranks_on_node(node)
            info = dict(job_info)
            info[PMIX_LOCAL_PEERS] = local_ranks
            server.register_namespace(nspace, procs, rank_to_node, info)
        # Servers on nodes not used by this job still need the map for
        # event forwarding and dmodex routing.
        for node in range(topo.num_nodes, self.dvm.machine.num_nodes):
            self.dvm.server_for(node).register_namespace(
                nspace, procs, rank_to_node, job_info)
        for rank in range(topo.num_ranks):
            server = self.dvm.server_for(topo.node_of(rank))
            clients.append(PmixClient(procs[rank], server))
        for name, ranks in spec.psets.items():
            self.psets.define(name, [PmixProc(nspace, r) for r in ranks])
        tr = self.dvm.engine.tracer
        if tr.enabled:
            from repro.simtime.trace import track_for_daemon

            tr.event(self.dvm.engine.now, track_for_daemon(self.dvm.hnp_node),
                     "prrte.dvm.launch", nspace=nspace,
                     ranks=topo.num_ranks, nodes=topo.num_nodes)
        return Job(nspace=nspace, topology=topo, clients=clients, all_procs=procs,
                   launcher=self, psets=tuple(spec.psets))

    def retire(self, nspace: str, psets: Sequence[str]) -> None:
        """The job is gone (nobody can run a rank of it any more): what
        :meth:`launch` registered for it is dropped, so a DVM that hosts
        job after job holds the running ones only."""
        cut: Dict = {}
        for daemon in self.dvm.daemons:
            if daemon.pmix_server is not None:
                daemon.pmix_server.deregister_namespace(nspace, cut)
        for name in psets:
            self.psets.undefine(name)
        faults = getattr(self.dvm, "faults", None)
        if faults is not None:
            faults.forget_namespace(nspace)
