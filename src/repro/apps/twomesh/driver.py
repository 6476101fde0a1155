"""2MESH driver: interleave L0 and L1 phases with QUO quiescence.

Per coupling iteration:

1. every rank runs the L0 stencil (MPI-everywhere);
2. non-worker ranks quiesce (QUO_barrier or the sessions barrier);
3. worker ranks (a few per node) run the threaded L1 stencil;
4. workers join the quiescence point, releasing everyone for the
   next coupling.

The paper's three test problems are P1/P2 at 256 processes and P3 at
1,024, fully subscribing Trinity's 32-core nodes (Table I); P1 is
L0-heavy, P2 is L1-heavy, P3 is larger and balanced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.api import SimSpec, run_mpi
from repro.apps.twomesh.l0 import l0_phase
from repro.apps.twomesh.l1 import l1_phase, poll_interference
from repro.apps.twomesh.mesh import CartGrid
from repro.machine.presets import trinity
from repro.ompi.config import MpiConfig
from repro.ompi.constants import THREAD_MULTIPLE, UNDEFINED
from repro.quo.context import QuoContext


@dataclass(frozen=True)
class TwoMeshProblem:
    name: str
    ranks: int
    ppn: int
    couplings: int            # L0/L1 phase alternations
    l0_steps: int
    l1_steps: int
    l0_compute: float         # per-step per-rank compute (seconds)
    l1_compute: float         # per-step single-thread compute (seconds)
    halo_bytes: int
    workers_per_node: int     # L1 ranks per node


#: The paper's three problems (sizes from §IV-E; phase mixes synthetic).
PROBLEMS: Dict[str, TwoMeshProblem] = {
    "P1": TwoMeshProblem(
        name="P1", ranks=256, ppn=32, couplings=6, l0_steps=6, l1_steps=2,
        l0_compute=170e-6, l1_compute=6.0e-3, halo_bytes=8192, workers_per_node=2,
    ),
    "P2": TwoMeshProblem(
        name="P2", ranks=256, ppn=32, couplings=6, l0_steps=3, l1_steps=5,
        l0_compute=80e-6, l1_compute=9.0e-3, halo_bytes=4096, workers_per_node=2,
    ),
    "P3": TwoMeshProblem(
        name="P3", ranks=1024, ppn=32, couplings=4, l0_steps=4, l1_steps=3,
        l0_compute=100e-6, l1_compute=8.0e-3, halo_bytes=8192, workers_per_node=2,
    ),
}


def twomesh_rank_program(mpi, problem: TwoMeshProblem, use_sessions: bool, out: List[float]):
    """Per-rank generator for one 2MESH run.

    The application itself always initializes via MPI_Init_thread; the
    sessions integration lives entirely inside QUO_create (paper §IV-E).
    """
    world = yield from mpi.mpi_init(THREAD_MULTIPLE)
    quo = yield from QuoContext.create(mpi, use_sessions=use_sessions)

    is_worker = quo.auto_distrib(problem.workers_per_node)
    if is_worker:
        quo.bind_push(2)  # QUO_OBJ_SOCKET: widen affinity for threads

    # Worker sub-communicator for L1 halo exchange.
    color = 0 if is_worker else UNDEFINED
    worker_comm = yield from world.split(color=color, key=world.rank)

    l0_grid = CartGrid(world.size)
    threads = mpi.machine.cores_per_node // problem.workers_per_node
    parked = quo.nqids() - problem.workers_per_node
    interference = poll_interference(mpi.machine, parked) if use_sessions else 0.0

    yield from world.barrier()
    t_start = mpi.engine.now
    for _coupling in range(problem.couplings):
        yield from l0_phase(
            world, l0_grid, problem.l0_steps, problem.l0_compute, problem.halo_bytes
        )
        if is_worker:
            l1_grid = CartGrid(worker_comm.size)
            yield from l1_phase(
                worker_comm,
                l1_grid,
                problem.l1_steps,
                problem.l1_compute,
                threads,
                problem.halo_bytes,
                interference,
            )
        # Quiescence point: parked ranks wait here while L1 runs;
        # workers arrive last and release everyone.
        yield from quo.quiesce()
    yield from world.barrier()
    out.append(mpi.engine.now - t_start)

    if is_worker:
        quo.bind_pop()
    if worker_comm is not None:
        worker_comm.free()
    yield from quo.free()
    yield from mpi.mpi_finalize()
    return "ok"


def run_twomesh(problem: TwoMeshProblem, use_sessions: bool, machine=None) -> float:
    """Run one 2MESH configuration; returns the phase-loop time (s)."""
    nodes = problem.ranks // problem.ppn
    machine = machine or trinity(nodes)
    config = MpiConfig.sessions_prototype() if use_sessions else MpiConfig.baseline()
    times: List[float] = []
    run_mpi(SimSpec(nprocs=problem.ranks, machine=machine,
                    ppn=problem.ppn, config=config),
            lambda mpi: twomesh_rank_program(mpi, problem, use_sessions, times))
    return max(times)
