"""One-call bootstrapping of the whole simulated system.

A :class:`Cluster` owns the simulation engine, the machine model, the
PRRTE DVM (daemon per node), the PMIx servers, and the pset registry —
everything below the MPI library.  Higher layers (``repro.api``) launch
jobs and MPI rank processes on top of it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.faults import FaultManager, FaultPlan
from repro.machine.model import MachineModel
from repro.machine.presets import laptop
from repro.pmix.server import PmixServer
from repro.prrte.dvm import DVM
from repro.prrte.launch import Job, JobSpec, Launcher
from repro.prrte.psets import PsetRegistry
from repro.simtime.engine import Engine
from repro.simtime.process import SimProcess
from repro.simtime.trace import NULL_TRACER, Tracer


class Cluster:
    """A booted simulated machine: engine + DVM + PMIx servers."""

    def __init__(
        self,
        machine: Optional[MachineModel] = None,
        grpcomm_mode: str = "tree",
        grpcomm_radix: int = 2,
        tracer: Optional[Tracer] = None,
        recovery: bool = False,
        recovery_seed: int = 0,
    ) -> None:
        self.machine = machine or laptop()
        self.engine = Engine()
        self.tracer = tracer or NULL_TRACER
        # Observability (docs/observability.md): every layer reaches the
        # tracer through the engine it already holds; metrics stay
        # disabled until a caller flips ``metrics.enabled`` (snapshot
        # harvesting works regardless).
        self.engine.tracer = self.tracer
        from repro.obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        self.engine.metrics = self.metrics
        self.psets = PsetRegistry()
        self.dvm = DVM(self.engine, self.machine, grpcomm_mode, grpcomm_radix)
        self.servers = [PmixServer(daemon, self.psets) for daemon in self.dvm.daemons]
        self.launcher = Launcher(self.dvm, self.psets)
        # Fault injection (docs/faults.md): inert until a plan is
        # installed or a kill is requested.
        self.faults = FaultManager(self)
        self.dvm.faults = self.faults
        self.dvm.rml.faults = self.faults
        # Recovery layer (docs/recovery.md): reliable RML + routing-tree
        # healing + grpcomm restart.  Strictly opt-in — with it off the
        # stack keeps the detect-and-fail semantics of docs/faults.md.
        self.recovery = recovery
        from collections import Counter

        self.recovery_stats = Counter()   # revoke/agree/shrink/... counters
        if recovery:
            self.dvm.rml.enable_reliability(seed=recovery_seed)
            for daemon in self.dvm.daemons:
                daemon.grpcomm.recovery = True

    def __del__(self) -> None:
        """The DVM goes down with the last reference to its cluster.

        Daemons, servers and the routing layer necessarily point at each
        other (they exchange messages), so the booted machine is one
        reference cycle; nothing in it points back at the ``Cluster``.
        Cutting the parts' references to each other here (what each part
        knows of itself stays readable) lets reference counting free the
        machine the moment the cluster is dropped, instead of leaving it
        to a later collector pass.
        """
        dvm = self.__dict__.get("dvm")
        if dvm is None:
            return      # construction failed before the DVM booted
        dvm.rml._daemons.clear()
        dvm.rml.faults = dvm.faults = None
        for daemon in dvm.daemons:
            daemon._handlers.clear()
            daemon.dvm = daemon.grpcomm.daemon = None
            if daemon.pmix_server is not None:
                daemon.pmix_server.daemon = None

    @classmethod
    def from_spec(cls, spec) -> "Cluster":
        """Boot a cluster from a :class:`repro.api.SimSpec`.

        Only the cluster-level spec fields are consumed here; job-level
        fields (``nprocs``/``ppn``/``psets``/``config``) are applied by
        ``make_world`` when it launches on top of this cluster.
        """
        return cls(machine=spec.machine, grpcomm_mode=spec.grpcomm_mode,
                   grpcomm_radix=spec.grpcomm_radix, tracer=spec.tracer,
                   recovery=spec.recovery, recovery_seed=spec.recovery_seed)

    @property
    def now(self) -> float:
        return self.engine.now

    def launch(
        self,
        num_ranks: int,
        ppn: Optional[int] = None,
        psets: Optional[Dict[str, Sequence[int]]] = None,
        nspace: Optional[str] = None,
    ) -> Job:
        """Launch a job (prun equivalent); ppn defaults to filling nodes."""
        if ppn is None:
            ppn = min(num_ranks, self.machine.cores_per_node)
        spec = JobSpec(num_ranks=num_ranks, ppn=ppn, psets=psets or {}, nspace=nspace)
        job = self.launcher.launch(spec)
        if self.faults.default_job is None:
            self.faults.default_job = (job.nspace, job.topology)
        return job

    def install_faults(self, plan: FaultPlan) -> None:
        """Install a fault plan (one per cluster; see docs/faults.md)."""
        self.faults.install(plan)

    def spawn(self, gen, name: str = "", track: Optional[str] = None) -> SimProcess:
        """Start a simulated process on this cluster's engine.

        ``track`` names the observability timeline the process lives on
        (e.g. ``rank:<nspace>/<rank>``); its lifetime becomes a
        ``simtime.proc.run`` root span there.
        """
        proc = SimProcess(self.engine, gen, name)
        if self.tracer.enabled:
            proc.obs_span = self.tracer.begin(
                self.engine.now, track or f"proc:{proc.name}",
                "simtime.proc.run", proc=proc.name,
            )
        proc.start()
        return proc

    def run(self, until: Optional[float] = None) -> float:
        """Drive the simulation until quiescent (or ``until``)."""
        return self.engine.run(until=until)

    def fail_process(self, job: Job, rank: int, sim_proc: Optional[SimProcess] = None) -> None:
        """Inject a process failure (fault-tolerance demos, §II-C).

        Delegates to the :class:`~repro.faults.FaultManager`: kills the
        rank's simulated process, marks it dead at its PMIx server (which
        evicts it from psets and aborts collectives it was part of), and
        broadcasts both a PMIX_ERR_PROC_ABORTED event and — kept for
        backward compatibility with pre-fault-subsystem handlers — a
        PMIX_ERR_PROC_TERMINATED event.
        """
        from repro.pmix.types import PMIX_ERR_PROC_TERMINATED

        self.faults.kill_rank(
            job, rank, sim_proc=sim_proc, code=PMIX_ERR_PROC_TERMINATED
        )
