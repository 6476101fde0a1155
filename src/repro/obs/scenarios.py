"""Canned, fully-instrumented runs for the observability tooling.

Each scenario boots a world with a live :class:`~repro.simtime.trace.Tracer`
and an enabled metrics registry, runs a short deterministic program, and
returns an :class:`ObsRun` bundling everything the exporters need.  The
same registry backs ``python -m repro obs`` and the ``tests/obs`` suite,
so the CLI demos and the assertions exercise identical code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.api import MpiWorld, SimSpec, run_world
from repro.machine.presets import jupiter, laptop, trinity
from repro.obs.metrics import MetricsRegistry
from repro.ompi.config import MpiConfig
from repro.simtime.trace import Tracer

MACHINES = {"jupiter": jupiter, "trinity": trinity, "laptop": laptop}


@dataclass
class ObsRun:
    """One instrumented scenario execution.

    ``world`` is ``None`` for partitioned executions (each worker
    process owned its own world replica; only the merged trace and
    metrics travel back — see ``repro.dsim``).
    """

    name: str
    world: Optional[MpiWorld]
    tracer: Tracer
    metrics: MetricsRegistry
    t_end: float

    @property
    def cluster(self):
        return self.world.cluster


# ---------------------------------------------------------------------------
# scenario programs
# ---------------------------------------------------------------------------
def _sessions_init_main(mpi):
    """The paper's Fig 3 Sessions sequence: init -> pset -> group -> comm."""
    session = yield from mpi.session_init()
    group = yield from session.group_from_pset("mpi://world")
    comm = yield from mpi.comm_create_from_group(group, "obs/fig3")
    yield from comm.barrier()
    comm.free()
    yield from session.finalize()


def _world_init_main(mpi):
    """The Fig 3 baseline: MPI_Init / MPI_Finalize."""
    comm = yield from mpi.mpi_init()
    yield from comm.barrier()
    yield from mpi.mpi_finalize()


def _dup_main(mpi):
    """Fig 4 flavour: sessions init plus a short MPI_Comm_dup loop."""
    session = yield from mpi.session_init()
    group = yield from session.group_from_pset("mpi://world")
    comm = yield from mpi.comm_create_from_group(group, "obs/fig4")
    for _ in range(3):
        dup = yield from comm.dup()
        dup.free()
    comm.free()
    yield from session.finalize()


def _fence_chain_main(mpi):
    """Sequential PMIx fences: the critical path IS the fence chain."""
    session = yield from mpi.session_init()
    for _ in range(4):
        yield from mpi.pmix.fence()
    yield from session.finalize()


def _pingpong_main(mpi):
    """Cross-node eager + rendezvous traffic for send->recv flow demos."""
    session = yield from mpi.session_init()
    group = yield from session.group_from_pset("mpi://world")
    comm = yield from mpi.comm_create_from_group(group, "obs/pp")
    peer = comm.size - 1 - comm.rank
    if peer != comm.rank:
        for nbytes in (64, 1 << 20):   # one eager, one rendezvous
            if comm.rank < peer:
                yield from comm.send(None, peer, tag=7, nbytes=nbytes)
                yield from comm.recv(peer, tag=8)
            else:
                yield from comm.recv(peer, tag=7)
                yield from comm.send(None, peer, tag=8, nbytes=nbytes)
    comm.free()
    yield from session.finalize()


def _faults_drop_main(mpi):
    """Fence under a dropped grpcomm message: the flow stays dangling."""
    from repro.pmix.types import PmixError

    session = yield from mpi.session_init()
    try:
        yield from mpi.pmix.fence()
    except PmixError:
        pass
    yield from session.finalize()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def _build_faults_plan():
    from repro.faults import FaultPlan

    return FaultPlan().drop_msg(layer="rml", tag="grpcomm_up", max_hits=1)


_SPECS: Dict[str, dict] = {
    "fig3-init": dict(main=_sessions_init_main,
                      config=MpiConfig.sessions_prototype),
    "fig3-init-world": dict(main=_world_init_main, config=MpiConfig.baseline),
    "fig4-dup": dict(main=_dup_main, config=MpiConfig.sessions_prototype),
    "fence-chain": dict(main=_fence_chain_main,
                        config=MpiConfig.sessions_prototype),
    "pingpong": dict(main=_pingpong_main,
                     config=MpiConfig.sessions_prototype),
    "faults-drop": dict(main=_faults_drop_main,
                        config=MpiConfig.sessions_prototype,
                        plan=_build_faults_plan, tolerate_errors=True),
}


def scenario_names() -> List[str]:
    return sorted(_SPECS)


def run_scenario(
    name: str,
    *,
    nodes: int = 2,
    ppn: int = 2,
    machine: str = "jupiter",
    partitions: int = 1,
) -> ObsRun:
    """Run a named scenario and return its :class:`ObsRun`.

    ``partitions=N`` executes the same world across N worker processes
    (``repro.dsim``); scenarios whose fault plan is not partition-safe
    raise :class:`~repro.dsim.PartitionError`.
    """
    try:
        spec = _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r} (have: {', '.join(scenario_names())})"
        ) from None
    plan_factory: Optional[Callable] = spec.get("plan")
    tracer = Tracer()
    res = run_world(
        SimSpec(
            nprocs=nodes * ppn,
            machine=MACHINES[machine](nodes),
            ppn=ppn,
            config=spec["config"](),
            tracer=tracer,
            partitions=partitions,
        ),
        spec["main"],
        plan=plan_factory() if plan_factory is not None else None,
        metrics_on=True)
    if not spec.get("tolerate_errors", False):
        res.raise_first_failure()
    return ObsRun(name=name, world=res.world, tracer=tracer,
                  metrics=res.metrics, t_end=res.t_end)
