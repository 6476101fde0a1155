"""The public entry point: launch simulated MPI programs.

    from repro.api import SimSpec, run_mpi

    def main(mpi):
        world = yield from mpi.mpi_init()
        value = yield from world.allreduce(world.rank, op=SUM)
        yield from mpi.mpi_finalize()
        return value

    results = run_mpi(SimSpec(nprocs=8), main)

Each rank's ``main`` is a generator receiving its
:class:`~repro.ompi.runtime.MpiRuntime`; blocking MPI calls are
``yield from``-ed.  ``run_mpi`` boots a cluster, launches the job,
runs the simulation to quiescence, and returns per-rank results; it is
a thin wrapper over :func:`run_world`, the one spawn-run-harvest loop
(in-process or, for ``SimSpec(partitions=N)``, across ``repro.dsim``
workers), which returns the whole :class:`RunResult`.

:class:`SimSpec` is the one description of a simulated run — machine,
layout, MPI config, recovery and partitioning knobs — shared by
:func:`make_world`, :func:`run_mpi`, ``Cluster.from_spec``, the
``repro.serve`` wire format and the ``repro.sweep`` cache keys.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster import Cluster
from repro.machine.model import MachineModel
from repro.ompi.config import MpiConfig
from repro.ompi.pml.ob1 import Fabric
from repro.ompi.runtime import MpiRuntime
from repro.prrte.launch import Job


@dataclass(frozen=True)
class SimSpec:
    """Immutable description of one simulated run.

    Consolidates the parameters that used to be loose kwargs spread
    across ``make_world``/``run_mpi``/``Cluster``.  A spec is pure
    data: everything except ``tracer`` round-trips through
    :meth:`to_payload`/:meth:`from_payload` (the ``repro.serve`` wire
    format, also usable as a sweep-cache key component).
    """

    nprocs: int = 1
    machine: Optional[MachineModel] = None      # None -> laptop preset
    ppn: Optional[int] = None                   # procs per node; None -> packed
    config: Optional[MpiConfig] = None          # None -> MpiConfig.baseline()
    psets: Optional[Mapping[str, Tuple[int, ...]]] = None
    grpcomm_mode: str = "tree"
    grpcomm_radix: int = 2
    tracer: Any = None                          # live object; never serialized
    recovery: bool = False
    recovery_seed: int = 0
    partitions: int = 1                 # worker processes (repro.dsim); 1 = in-process

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError("need at least one rank")
        if self.partitions < 1:
            raise ValueError("need at least one partition")
        if self.psets is not None:
            # Normalize to plain dict-of-tuples so equality and payloads
            # are insensitive to the caller's container choices.
            object.__setattr__(
                self, "psets",
                {name: tuple(ranks) for name, ranks in dict(self.psets).items()},
            )

    def replace(self, **overrides: Any) -> "SimSpec":
        """A copy of this spec with the given fields overridden."""
        return replace(self, **overrides)

    # -- wire format ---------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable dict; inverse of :meth:`from_payload`.

        This is the ``repro.serve`` request format.  Only fields that
        differ from their default are written — here and inside
        ``machine``/``config`` — since :meth:`from_payload` fills the
        rest back in; equal specs therefore give byte-equal canonical
        JSON, so ``repro.sweep.cache_key`` over it is a valid cache
        identity.  A live ``tracer`` cannot cross a process boundary and
        is rejected.
        """
        if self.tracer is not None:
            raise ValueError("SimSpec.tracer is not wire-serializable; "
                             "attach tracers on the receiving side")
        payload = _changed_fields(self)
        for name in ("machine", "config"):
            if name in payload:
                payload[name] = _changed_fields(payload[name])
        if "psets" in payload:
            payload["psets"] = {name: list(ranks)
                                for name, ranks in self.psets.items()}
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SimSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown SimSpec payload field(s): {unknown}")
        kw: Dict[str, Any] = dict(payload)
        if kw.get("machine") is not None:
            kw["machine"] = MachineModel(**kw["machine"])
        if kw.get("config") is not None:
            kw["config"] = MpiConfig(**kw["config"])
        if kw.get("tracer") is not None:
            raise ValueError("SimSpec payloads cannot carry a tracer")
        kw.pop("tracer", None)
        return cls(**kw)


def _changed_fields(obj: Any) -> Dict[str, Any]:
    """The dataclass fields of ``obj`` whose value differs from the
    field's default; a field without a plain default (required, or a
    ``default_factory``) is always included."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)
            if f.default is MISSING or getattr(obj, f.name) != f.default}


@dataclass
class MpiWorld:
    """A launched job plus everything needed to run rank programs."""

    cluster: Cluster
    job: Job
    fabric: Fabric
    runtimes: List[MpiRuntime]
    spec: Optional[SimSpec] = None      # the spec this world was built from

    @property
    def num_ranks(self) -> int:
        return self.job.num_ranks

    def spawn_ranks(self, main: Callable, args: Sequence[Any] = (),
                    ranks: Optional[Sequence[int]] = None) -> List:
        """Start ``main(runtime, *args)`` on every rank; returns processes.

        ``ranks`` restricts spawning to a subset (``repro.dsim`` workers
        start only the ranks their partition owns); the returned list
        then covers exactly those ranks, in the given order.
        """
        procs = []
        tracing = self.cluster.tracer.enabled
        selected = range(len(self.runtimes)) if ranks is None else ranks
        for rank in selected:
            rt = self.runtimes[rank]
            gen = main(rt, *args)
            sim = self.cluster.spawn(
                gen, name=f"rank{rank}", track=rt.obs_track if tracing else None
            )
            self.cluster.faults.register_rank_proc(rt.proc, sim)
            procs.append(sim)
        for p in procs:
            p.defuse()
        return procs

    def run(self, until: Optional[float] = None) -> float:
        return self.cluster.run(until=until)


def _require_spec(spec: Any) -> None:
    if not isinstance(spec, SimSpec):
        raise TypeError(f"a run is described by a repro.api.SimSpec, "
                        f"got {type(spec).__name__}")


def make_world(spec: SimSpec, *, cluster: Optional[Cluster] = None,
               fabric: Optional[Fabric] = None) -> MpiWorld:
    """Boot a cluster and launch (but do not run) the job ``spec``
    describes.

    Pass an existing ``cluster`` (and optionally ``fabric``) to co-host
    several jobs on one DVM — the PRRTE model, where one set of daemons
    serves many ``prun`` invocations.  Co-hosted jobs share the PMIx
    servers and the PGCID space but have distinct namespaces.
    ``SimSpec(recovery=True)`` enables the fault-recovery layer
    (reliable RML, tree healing, ULFM-lite shrink — docs/recovery.md).
    """
    _require_spec(spec)
    if cluster is None:
        cluster = Cluster.from_spec(spec)
    elif spec.machine is not None and spec.machine is not cluster.machine:
        raise ValueError("pass machine or an existing cluster, not both")
    job = cluster.launch(spec.nprocs, ppn=spec.ppn, psets=spec.psets)
    fabric = fabric or Fabric(cluster)
    config = spec.config or MpiConfig.baseline()
    runtimes = [MpiRuntime(cluster, job, fabric, r, config)
                for r in range(spec.nprocs)]
    cluster.faults.mpi_ranks[job.nspace] = spec.nprocs
    return MpiWorld(cluster=cluster, job=job, fabric=fabric,
                    runtimes=runtimes, spec=spec)


@dataclass
class RunResult:
    """Outcome of one run, in-process or partitioned (same shape)."""

    t_end: float
    events: int
    results: Dict[int, Any]                 # rank -> return value
    failures: Dict[int, Tuple[str, str]]    # rank -> (exc type name, message)
    dead_ranks: List[int]
    counters: Dict[str, Any]                # raw layer counters (see harvest)
    tracer: Any = None                      # the spec's tracer, if it had one
    metrics: Any = None                     # MetricsRegistry (metrics_on runs)
    world: Optional[MpiWorld] = None        # None when partitioned
    exceptions: Dict[int, BaseException] = field(default_factory=dict)  # in-process only

    def result_list(self, num_ranks: int) -> List[Any]:
        """Per-rank results in rank order (every rank must have one)."""
        missing = [r for r in range(num_ranks) if r not in self.results]
        if missing:
            raise RuntimeError(f"no result for rank(s) {missing}; "
                               f"failures: {self.failures}")
        return [self.results[r] for r in range(num_ranks)]

    def raise_first_failure(self) -> None:
        """Raise the lowest failed rank's own exception object, if any
        (a partitioned result raises a ``PartitionRankError`` naming it
        instead: the object stayed in the worker process)."""
        if self.failures:
            raise self.exceptions[min(self.failures)]


def harvest(world: MpiWorld, procs: Sequence, ranks: Optional[Sequence[int]] = None,
            metrics_on: bool = False) -> RunResult:
    """The outcome of a quiesced world whose ``procs`` ran ``ranks``
    (default: every rank, in order).

    Shared by :func:`run_world` and the ``repro.dsim`` workers, each of
    which harvests its replica for the coordinator to sum — so the
    ``counters`` key set is defined here and nowhere else.
    """
    cluster = world.cluster
    if metrics_on:
        from repro.obs.metrics import snapshot_cluster

        snapshot_cluster(cluster.metrics, cluster, world)
    results: Dict[int, Any] = {}
    failures: Dict[int, Tuple[str, str]] = {}
    exceptions: Dict[int, BaseException] = {}
    for rank, p in zip(range(len(procs)) if ranks is None else ranks, procs):
        exc = p.exception
        if exc is not None:
            failures[rank] = (type(exc).__name__, str(exc))
            exceptions[rank] = exc
        else:
            results[rank] = p.result
    nspace = world.job.nspace
    dvm = cluster.dvm
    rml = dvm.rml
    return RunResult(
        t_end=cluster.now,
        events=cluster.engine.events_executed,
        results=results,
        failures=failures,
        dead_ranks=sorted(p.rank for p in cluster.faults.dead_procs
                          if p.nspace == nspace),
        counters={
            "rml.messages_sent": rml.messages_sent,
            "rml.bytes_sent": rml.bytes_sent,
            "rml.dropped": getattr(rml, "dropped", 0),
            "rml.retransmits": rml.retransmits,
            "rml.acks_sent": rml.acks_sent,
            "rml.dup_suppressed": rml.dup_suppressed,
            "rml.retry_exhausted": rml.retry_exhausted,
            "pml.packets": world.fabric.packets,
            "pml.bytes": world.fabric.bytes,
            "dvm.fence_retries": dvm.fence_retries,
            "dvm.pgcids_allocated": dvm.pgcids_allocated,
            "dvm.heals": sum(d.heals for d in dvm.daemons),
            "dvm.grpcomm_restarts": sum(d.grpcomm.restarts for d in dvm.daemons),
            "recovery_stats": dict(cluster.recovery_stats),
            "faults_stats": dict(cluster.faults.stats),
        },
        tracer=world.spec.tracer,
        metrics=cluster.metrics if metrics_on else None,
        world=world,
        exceptions=exceptions,
    )


def run_world(spec: SimSpec, main: Callable, *, args: Sequence[Any] = (),
              plan=None, metrics_on: bool = False) -> RunResult:
    """Build the world ``spec`` describes, run ``main`` on every rank to
    quiescence and harvest the outcome — the one spawn-run-harvest loop.

    ``spec.partitions > 1`` runs the same world across that many worker
    processes (``repro.dsim``) and returns the same shape with
    ``world=None``.  A ``spec.tracer`` records the run either way (the
    merged per-worker trace is adopted into it).  ``plan`` is a fault
    plan to install; ``metrics_on`` enables and snapshots the metrics
    registry.  Rank failures are reported, not raised.
    """
    _require_spec(spec)
    if spec.partitions > 1:
        from repro.dsim import run_partitioned
        from repro.dsim.merge import adopt_tracer

        tracer = spec.tracer
        res = run_partitioned(spec.replace(tracer=None), main, args=args,
                              plan=plan, traced=tracer is not None,
                              metrics_on=metrics_on)
        if tracer is not None:
            adopt_tracer(tracer, res.tracer)
            res.tracer = tracer
        return res
    world = make_world(spec)
    if metrics_on:
        world.cluster.metrics.enabled = True
    if plan is not None:
        world.cluster.install_faults(plan)
    procs = world.spawn_ranks(main, args)
    world.run()
    return harvest(world, procs, metrics_on=metrics_on)


def run_mpi(spec: SimSpec, main: Callable, *, args: Sequence[Any] = (),
            return_world: bool = False):
    """Run ``main`` on the ranks described by a :class:`SimSpec`.

    Every spec field reaches :func:`make_world`: the two entry points
    share one parameter path and cannot diverge.

    Returns the list of per-rank return values (or ``(results, world)``
    when ``return_world`` is set, for benchmarks that need the clock or
    counters afterwards; the world is ``None`` for a partitioned run).
    Raises the first rank failure, if any.
    """
    res = run_world(spec, main, args=args)
    res.raise_first_failure()
    results = res.result_list(spec.nprocs)
    if return_world:
        return results, res.world
    return results
