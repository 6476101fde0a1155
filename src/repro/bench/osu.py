"""Ports of the (modified) OSU microbenchmarks used in paper §IV-C.

Each function runs a complete simulated job and returns timings in
simulated seconds.  ``mode`` selects the initialization path:

* ``"world"``   — baseline Open MPI: MPI_Init + MPI_COMM_WORLD
  (consensus CID generator);
* ``"sessions"`` — the prototype: MPI_Session_init →
  MPI_Group_from_session_pset("mpi://world") →
  MPI_Comm_create_from_group (exCID generator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api import SimSpec, run_mpi
from repro.machine.presets import jupiter
from repro.ompi.config import MpiConfig
from repro.simtime.process import Sleep

#: Message sizes (bytes) for the latency / bandwidth sweeps — a subset
#: of the OSU powers-of-two to keep event counts sane.
DEFAULT_SIZES = (1, 8, 64, 512, 4096, 32768, 262144, 1048576)


def _config_for(mode: str, dup_policy: str = "pgcid-per-dup") -> MpiConfig:
    if mode == "world":
        return MpiConfig.baseline()
    if mode == "sessions":
        return MpiConfig.sessions_prototype(dup_policy)
    raise ValueError(f"unknown mode {mode!r}")


def _bootstrap(mode: str, mpi, tag: str = "osu"):
    """Sub-generator: initialize per ``mode``; returns the benchmark comm."""
    if mode == "world":
        comm = yield from mpi.mpi_init()
        return comm
    session = yield from mpi.session_init()
    group = yield from session.group_from_pset("mpi://world")
    comm = yield from mpi.comm_create_from_group(group, tag)
    return comm


def _teardown(mode: str, mpi, comm):
    if mode == "world":
        yield from mpi.mpi_finalize()
    else:
        session = comm.session
        comm.free()
        yield from session.finalize()


# ---------------------------------------------------------------------------
# osu_init (Fig 3)
# ---------------------------------------------------------------------------
@dataclass
class InitTiming:
    total: float          # job-start to communicator-ready (max over ranks)
    binary_load: float    # modeled NFS library-load component (same per path)
    handle: float         # sessions only: MPI_Session_init, minus binary load
    comm_construct: float  # sessions only: MPI_Comm_create_from_group


def osu_init(nodes: int, ppn: int, mode: str, machine_factory=jupiter,
             tracer=None, partitions: int = 1) -> InitTiming:
    """The osu_init benchmark (modified for sessions as in the paper).

    Pass a :class:`~repro.simtime.trace.Tracer` to record spans/flows for
    the run (the ``--obs`` mode of ``python -m repro figure``).

    ``partitions > 1`` executes the same world across that many worker
    processes (:mod:`repro.dsim`); all returned timings are simulated
    time, so they are bit-identical to the single-process run — the flag
    only changes the wall-clock side of the computation.
    """
    machine = machine_factory(nodes)
    spec = SimSpec(nprocs=nodes * ppn, machine=machine,
                   ppn=ppn, config=_config_for(mode))
    nfs = machine.nfs_load_time(nodes * ppn)

    def main(mpi):
        # Marks are *returned* (not appended to a closure) so the same
        # program runs under repro.dsim, where each rank executes in a
        # worker process and only return values cross back.
        t0 = mpi.engine.now
        if mode == "world":
            yield from mpi.mpi_init()
            t1 = mpi.engine.now
            yield from mpi.mpi_finalize()
            return (t0, t1)
        session = yield from mpi.session_init()
        t1 = mpi.engine.now
        group = yield from session.group_from_pset("mpi://world")
        t2 = mpi.engine.now
        comm = yield from mpi.comm_create_from_group(group, "osu-init")
        t3 = mpi.engine.now
        comm.free()
        yield from session.finalize()
        return (t0, t1, t2, t3)

    marks: List[Tuple[float, ...]] = run_mpi(
        spec.replace(tracer=tracer, partitions=partitions), main)
    if mode == "world":
        total = max(t1 - t0 for t0, t1 in marks)
        return InitTiming(total=total, binary_load=nfs, handle=0.0, comm_construct=0.0)
    total = max(m[3] - m[0] for m in marks)
    handle = sum(m[1] - m[0] for m in marks) / len(marks) - nfs
    commc = sum(m[3] - m[2] for m in marks) / len(marks)
    return InitTiming(total=total, binary_load=nfs, handle=handle, comm_construct=commc)


# ---------------------------------------------------------------------------
# MPI_Comm_dup timing (Fig 4)
# ---------------------------------------------------------------------------
def osu_comm_dup(
    nodes: int,
    ppn: int,
    mode: str,
    iterations: int = 40,
    machine_factory=jupiter,
    dup_policy: str = "pgcid-per-dup",
) -> float:
    """Per-iteration MPI_Comm_dup + MPI_Comm_free time (seconds)."""
    machine = machine_factory(nodes)
    spec = SimSpec(nprocs=nodes * ppn, machine=machine, ppn=ppn,
                   config=_config_for(mode, dup_policy))
    out: List[float] = []

    def main(mpi):
        comm = yield from _bootstrap(mode, mpi, "osu-dup")
        # One untimed dup warms the PMIx "group" path so Fig 4 measures
        # the steady-state PGCID acquisition cost, as the paper does.
        warm = yield from comm.dup()
        warm.free()
        yield from comm.barrier()
        t0 = mpi.engine.now
        for _ in range(iterations):
            dup = yield from comm.dup()
            dup.free()
        yield from comm.barrier()
        if comm.rank == 0:
            out.append((mpi.engine.now - t0) / iterations)
        yield from _teardown(mode, mpi, comm)

    run_mpi(spec, main)
    return out[0]


# ---------------------------------------------------------------------------
# osu_latency (Fig 5a)
# ---------------------------------------------------------------------------
def osu_latency(
    mode: str,
    sizes=DEFAULT_SIZES,
    machine=None,
    skip: int = 5,
    iterations: int = 40,
) -> Dict[int, float]:
    """On-node ping-pong latency by message size (seconds, one way)."""
    machine = machine or jupiter(1)
    spec = SimSpec(nprocs=2, machine=machine, ppn=2, config=_config_for(mode))
    out: Dict[int, float] = {}

    def main(mpi):
        comm = yield from _bootstrap(mode, mpi, "osu-lat")
        rank = comm.rank
        for size in sizes:
            yield from comm.barrier()
            t0 = None
            for i in range(skip + iterations):
                if i == skip:
                    t0 = mpi.engine.now
                if rank == 0:
                    yield from comm.send(None, 1, tag=1, nbytes=size)
                    yield from comm.recv(1, tag=1)
                else:
                    yield from comm.recv(0, tag=1)
                    yield from comm.send(None, 0, tag=1, nbytes=size)
            if rank == 0:
                out[size] = (mpi.engine.now - t0) / (2 * iterations)
        yield from _teardown(mode, mpi, comm)

    run_mpi(spec, main)
    return out


# ---------------------------------------------------------------------------
# osu collective latency (osu_allreduce / osu_bcast / osu_barrier style)
# ---------------------------------------------------------------------------
def osu_collective(
    mode: str,
    op_name: str,
    nodes: int = 2,
    ppn: int = 8,
    sizes=(8, 4096, 65536),
    iterations: int = 10,
    skip: int = 2,
    machine_factory=jupiter,
) -> Dict[int, float]:
    """Per-iteration collective latency by payload size (seconds).

    ``op_name`` in {"allreduce", "bcast", "barrier", "allgather",
    "alltoall"}; for "barrier" the size axis collapses to {0}.  The
    ``skip`` warmup iterations absorb first-touch costs (exCID
    handshakes, lazy peer discovery) as real OSU does.
    """
    machine = machine_factory(nodes)
    spec = SimSpec(nprocs=nodes * ppn, machine=machine, ppn=ppn,
                   config=_config_for(mode))
    out: Dict[int, float] = {}
    if op_name == "barrier":
        sizes = (0,)

    def main(mpi):
        from repro.ompi.constants import SUM

        comm = yield from _bootstrap(mode, mpi, f"osu-{op_name}")
        for size in sizes:
            yield from comm.barrier()
            t0 = None
            for _i in range(skip + iterations):
                if _i == skip:
                    yield from comm.barrier()
                    t0 = mpi.engine.now
                if op_name == "allreduce":
                    yield from comm.allreduce(1.0, op=SUM, nbytes=size)
                elif op_name == "bcast":
                    yield from comm.bcast(None, root=0, nbytes=size)
                elif op_name == "allgather":
                    yield from comm.allgather(None, nbytes=size)
                elif op_name == "alltoall":
                    yield from comm.alltoall([None] * comm.size, nbytes=size)
                elif op_name == "barrier":
                    yield from comm.barrier()
                else:
                    raise ValueError(f"unknown collective {op_name!r}")
            elapsed = mpi.engine.now - t0
            yield from comm.barrier()
            if comm.rank == 0:
                out[size] = elapsed / iterations
        yield from _teardown(mode, mpi, comm)

    run_mpi(spec, main)
    return out


# ---------------------------------------------------------------------------
# osu_bw (unidirectional bandwidth; supporting data for Fig 5)
# ---------------------------------------------------------------------------
def osu_bw(
    mode: str,
    sizes=DEFAULT_SIZES,
    machine=None,
    window: int = 16,
    iterations: int = 8,
) -> Dict[int, float]:
    """Unidirectional streaming bandwidth between 2 on-node ranks.

    Sender posts ``window`` isends per iteration; the receiver answers
    one ACK per window.  Returns {size: bytes/s}.
    """
    machine = machine or jupiter(1)
    spec = SimSpec(nprocs=2, machine=machine, ppn=2, config=_config_for(mode))
    out: Dict[int, float] = {}

    def main(mpi):
        comm = yield from _bootstrap(mode, mpi, "osu-bw")
        rank = comm.rank
        for size in sizes:
            yield from comm.barrier()
            t0 = mpi.engine.now
            for _ in range(iterations):
                if rank == 0:
                    reqs = []
                    for _w in range(window):
                        reqs.append((yield from comm.isend(None, 1, tag=2, nbytes=size)))
                    for req in reqs:
                        yield from req.wait()
                    yield from comm.recv(1, tag=4)
                else:
                    reqs = [comm.irecv(source=0, tag=2) for _w in range(window)]
                    for req in reqs:
                        yield from req.wait()
                    yield from comm.send(None, 0, tag=4, nbytes=4)
            if rank == 0:
                out[size] = iterations * window * size / (mpi.engine.now - t0)
        yield from _teardown(mode, mpi, comm)

    run_mpi(spec, main)
    return out


# ---------------------------------------------------------------------------
# osu_mbw_mr (Fig 5b / 5c)
# ---------------------------------------------------------------------------
def osu_mbw_mr(
    mode: str,
    pairs: int,
    sizes=DEFAULT_SIZES,
    machine=None,
    window: int = 32,
    iterations: int = 8,
    presync: bool = False,
) -> Dict[int, Tuple[float, float]]:
    """Multiple-bandwidth / message-rate test.

    ``pairs`` sender/receiver pairs (rank i with rank i+pairs) on one
    node.  Per the paper's account of OSU 5.6, a single ``MPI_Barrier``
    precedes the timing loop; with 2 processes that barrier completes
    the exCID→local-CID switch, with more pairs it does not (the
    barrier's fan-in pattern never exchanges between the test's rank
    pairs).  ``presync=True`` adds the paper's fix: an
    ``MPI_Sendrecv`` between each pair before timing.

    Returns {size: (bandwidth bytes/s, message rate msgs/s)}.
    """
    machine = machine or jupiter(1)
    nprocs = 2 * pairs
    if nprocs > machine.cores_per_node:
        raise ValueError("mbw_mr must fit on one node")
    spec = SimSpec(nprocs=nprocs, machine=machine, ppn=nprocs,
                   config=_config_for(mode))
    out: Dict[int, Tuple[float, float]] = {}

    def main(mpi):
        comm = yield from _bootstrap(mode, mpi, "osu-mbw")
        rank = comm.rank
        is_sender = rank < pairs
        peer = rank + pairs if is_sender else rank - pairs
        for size in sizes:
            if presync:
                # The paper's fix: synchronize each pair (completing the
                # exCID handshake) before timing.  An extra untimed
                # barrier also absorbs the one-time lazy-add_procs
                # discovery of the barrier fan-out partners (§III-B1).
                yield from comm.sendrecv(None, peer, peer, sendtag=3, recvtag=3, nbytes=4)
                yield from comm.barrier()
            yield from comm.barrier()
            t0 = mpi.engine.now
            for _ in range(iterations):
                if is_sender:
                    reqs = []
                    for _w in range(window):
                        reqs.append((yield from comm.isend(None, peer, tag=2, nbytes=size)))
                    for req in reqs:
                        yield from req.wait()
                    yield from comm.recv(peer, tag=4)        # window ACK
                else:
                    reqs = [comm.irecv(source=peer, tag=2) for _w in range(window)]
                    for req in reqs:
                        yield from req.wait()
                    yield from comm.send(None, peer, tag=4, nbytes=4)
            elapsed = mpi.engine.now - t0
            # Aggregate over pairs: the reported figure uses the slowest
            # sender's time, so an unswitched pair's first-window
            # extended-header cost is visible (as in the paper's Fig 5c).
            times = yield from comm.gather(elapsed if is_sender else None, root=0)
            if rank == 0:
                worst = max(t for t in times if t is not None)
                total_bytes = pairs * iterations * window * size
                total_msgs = pairs * iterations * window
                out[size] = (total_bytes / worst, total_msgs / worst)
        yield from _teardown(mode, mpi, comm)

    run_mpi(spec, main)
    return out
