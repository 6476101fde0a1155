"""One entry point per paper table/figure (and the DESIGN.md ablations).

Every function returns a :class:`~repro.bench.harness.BenchResult`
whose series mirror the lines of the original plot; ``quick=True``
trims the sweeps for CI-speed runs, ``quick=False`` runs the full
paper-scale sweeps.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Dict, List, Optional

from repro.apps.twomesh.driver import PROBLEMS, run_twomesh
from repro.bench.harness import BenchResult
from repro.bench.hpcc import hpcc_ring_latency
from repro.bench.osu import (_bootstrap, _config_for, osu_collective, osu_comm_dup,
                             osu_init, osu_latency, osu_mbw_mr)
from repro.machine.presets import jupiter, trinity
from repro.ompi.config import MpiConfig


def _init_nodes(quick: bool) -> List[int]:
    return [2, 8] if quick else [1, 2, 4, 8, 16, 32]


def _init_nodes_ppn28(quick: bool) -> List[int]:
    return [2, 4] if quick else [2, 4, 8, 16, 32]


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------
def table1() -> BenchResult:
    """Hardware/software table: the two machine models used throughout."""
    res = BenchResult(exp_id="table1", title="Hardware and software used for this study")
    machines = [trinity(1), jupiter(1)]
    keys = list(machines[0].describe())
    for key in keys:
        row = " | ".join(f"{m.name}: {m.describe()[key]}" for m in machines)
        res.notes.append(f"{key:>16}  {row}")
    return res


# ---------------------------------------------------------------------------
# Fig 3: MPI initialization time
# ---------------------------------------------------------------------------
def _fig3(ppn: int, quick: bool, obs: bool, partitions: int) -> BenchResult:
    """Fig 3: MPI init time by node count, MPI_Init vs Sessions sequence.

    ``obs=True`` instruments every sessions run with a tracer and
    attaches a per-phase critical-path breakdown and metric counters to
    ``result.obs`` (one entry per node count).

    ``partitions > 1`` computes each point across that many worker
    processes (:mod:`repro.dsim`); the simulated timings — and therefore
    the figure — are bit-identical to the single-process run.  Points
    with fewer nodes than partitions fall back to one process (a
    partition must own at least one node).
    """
    nodes_list = _init_nodes(quick) if ppn == 1 else _init_nodes_ppn28(quick)
    res = BenchResult(
        exp_id=f"fig3{'a' if ppn == 1 else 'b'}",
        title=f"MPI initialization time, {ppn} process(es) per node",
    )
    base = res.series_for("MPI_Init")
    sess = res.series_for("Sessions")
    share = res.series_for("session-handle share")
    for nodes in nodes_list:
        nparts = partitions if nodes >= partitions else 1
        base.add(nodes, osu_init(nodes, ppn, "world",
                                 partitions=nparts).total)
        tracer = None
        if obs:
            from repro.simtime.trace import Tracer

            tracer = Tracer()
        timing = osu_init(nodes, ppn, "sessions", tracer=tracer,
                          partitions=nparts)
        if tracer is not None:
            from repro.obs import compute_critical_path

            cp = compute_critical_path(tracer)
            # Partitioned runs namespace merged-trace tracks as "p{k}:";
            # attribution is partition-agnostic, so strip the prefixes
            # to keep the figure payload bit-identical across modes.
            strip = lambda t: re.sub(r"(^|->)p\d+:", r"\1", t)  # noqa: E731
            res.obs[f"nodes={nodes}"] = {
                "total": cp.total,
                "stages": [
                    {"name": st.name, "track": strip(st.track),
                     "kind": st.kind, "start": st.start,
                     "duration": st.duration}
                    for st in cp.stages
                ],
                "by_stage": dict(cp.by_stage()),
                "spans": len(tracer.spans),
                "flows": len(tracer.flows),
            }
        sess.add(nodes, timing.total)
        share.add(nodes, timing.handle / (timing.handle + timing.comm_construct))
    return res


def fig3a(quick: bool = True, obs: bool = False,
          partitions: int = 1) -> BenchResult:
    """Fig 3a: init time with 1 MPI process per node."""
    return _fig3(1, quick, obs, partitions)


def fig3b(quick: bool = True, obs: bool = False,
          partitions: int = 1) -> BenchResult:
    """Fig 3b: init time with 28 MPI processes per node."""
    return _fig3(28, quick, obs, partitions)


# ---------------------------------------------------------------------------
# Fig 4: MPI_Comm_dup time
# ---------------------------------------------------------------------------
def fig4(quick: bool = True, ppn: int = 28) -> BenchResult:
    """Fig 4: MPI_Comm_dup per-iteration time, both init paths."""
    nodes_list = _init_nodes_ppn28(quick)
    res = BenchResult(
        exp_id="fig4",
        title=f"MPI_Comm_dup per-iteration time, {ppn} processes per node; "
              "PGCIDs per dup at 2x4 ranks",
    )
    base = res.series_for("MPI_Init")
    sess = res.series_for("Sessions")
    for nodes in nodes_list:
        base.add(nodes, osu_comm_dup(nodes, ppn, "world"))
        sess.add(nodes, osu_comm_dup(nodes, ppn, "sessions"))
    pgcids = res.series_for("PGCIDs per dup")
    for mode, label in (("world", "MPI_Init"), ("sessions", "Sessions")):
        pgcids.add(label, _pgcids_per_dup(mode))
    return res


def _pgcids_per_dup(mode: str, dups: int = 5) -> float:
    """PMIx group context ids the HNP allocates per MPI_Comm_dup (2x4 ranks)."""
    from repro.api import SimSpec, run_mpi

    def main(mpi):
        comm = yield from _bootstrap(mode, mpi, "fig4")
        dvm = mpi.cluster.dvm
        before = dvm.pgcids_allocated
        for _ in range(dups):
            dup = yield from comm.dup()
            dup.free()
        yield from comm.barrier()
        return dvm.pgcids_allocated - before

    spec = SimSpec(nprocs=8, machine=jupiter(2), ppn=4, config=_config_for(mode))
    return run_mpi(spec, main)[0] / dups


# ---------------------------------------------------------------------------
# Fig 5: latency / multiple bandwidth / message rate (relative)
# ---------------------------------------------------------------------------
def fig5a(quick: bool = True) -> BenchResult:
    """Fig 5a: relative on-node latency by message size (2 procs)."""
    sizes = (1, 64, 4096, 262144) if quick else (1, 8, 64, 512, 4096, 32768, 262144, 1048576)
    res = BenchResult(
        exp_id="fig5a", title="Relative on-node latency by message size (2 procs)"
    )
    base = osu_latency("world", sizes=sizes)
    sess = osu_latency("sessions", sizes=sizes)
    rel = res.series_for("Sessions/MPI_Init latency ratio")
    for size in sizes:
        rel.add(size, sess[size] / base[size])
    return res


def _mbw_result(exp_id: str, title: str, pairs: int, sizes, presync: bool = False) -> BenchResult:
    res = BenchResult(exp_id=exp_id, title=title)
    base = osu_mbw_mr("world", pairs=pairs, sizes=sizes, presync=presync)
    sess = osu_mbw_mr("sessions", pairs=pairs, sizes=sizes, presync=presync)
    bw = res.series_for("Sessions/MPI_Init bandwidth ratio")
    mr = res.series_for("Sessions/MPI_Init message-rate ratio")
    for size in sizes:
        bw.add(size, sess[size][0] / base[size][0])
        mr.add(size, sess[size][1] / base[size][1])
    return res


def fig5b(quick: bool = True) -> BenchResult:
    """Fig 5b: relative bandwidth/message rate, 1 pair (identical)."""
    sizes = (1, 64, 4096, 262144) if quick else (1, 8, 64, 512, 4096, 32768, 262144)
    return _mbw_result(
        "fig5b", "Relative bandwidth / message rate, 2 processes (1 pair)", 1, sizes
    )


def fig5c(quick: bool = True, presync: bool = False) -> BenchResult:
    """Fig 5c: 8 pairs — handshake cost at small sizes; presync fixes it."""
    sizes = (1, 64, 4096, 262144) if quick else (1, 8, 64, 512, 4096, 32768, 262144)
    title = "Relative bandwidth / message rate, 16 processes (8 pairs)"
    if presync:
        title += " with sendrecv pre-synchronization"
    return _mbw_result("fig5c", title, 8, sizes, presync=presync)


# ---------------------------------------------------------------------------
# Fig 6: HPCC ring latency
# ---------------------------------------------------------------------------
def _fig6(ordering: str, quick: bool, ppn: int = 28) -> BenchResult:
    """Fig 6: HPCC 8-byte ring latency, sessions vs baseline."""
    nodes_list = [2] if quick else [2, 4, 8, 16]
    res = BenchResult(
        exp_id=f"fig6{'a' if ordering == 'random' else 'b'}",
        title=f"HPCC 8-byte {ordering}-order ring latency, {ppn} ppn",
    )
    base = res.series_for("MPI_Init")
    sess = res.series_for("Sessions")
    for nodes in nodes_list:
        base.add(nodes, hpcc_ring_latency(nodes, ppn, "world", ordering))
        sess.add(nodes, hpcc_ring_latency(nodes, ppn, "sessions", ordering))
    return res


def fig6a(quick: bool = True) -> BenchResult:
    """Fig 6a: random-order ring latency."""
    return _fig6("random", quick)


def fig6b(quick: bool = True) -> BenchResult:
    """Fig 6b: natural-order ring latency."""
    return _fig6("natural", quick)


# ---------------------------------------------------------------------------
# Fig 7: 2MESH normalized execution time
# ---------------------------------------------------------------------------
def fig7(quick: bool = True) -> BenchResult:
    """Fig 7: normalized 2MESH execution times (quiescence overhead).

    ``quick`` runs P1 and P2 shrunk to 64 ranks and 2 couplings; the
    paper sizes are 256 ranks for P1/P2 and 1,024 for P3."""
    problems = [PROBLEMS["P1"], PROBLEMS["P2"]]
    if quick:
        problems = [replace(p, ranks=64, couplings=2) for p in problems]
    else:
        problems.append(PROBLEMS["P3"])
    res = BenchResult(exp_id="fig7", title="Normalized 2MESH execution times")
    base = res.series_for("Baseline")
    sess = res.series_for("Sessions")
    norm = res.series_for("Sessions/Baseline")
    for problem in problems:
        t_base = run_twomesh(problem, use_sessions=False)
        t_sess = run_twomesh(problem, use_sessions=True)
        base.add(problem.name, t_base)
        sess.add(problem.name, t_sess)
        norm.add(problem.name, t_sess / t_base)
    return res


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md section 4)
# ---------------------------------------------------------------------------
def ablation_dup_policy(nodes: int = 2, ppn: int = 28) -> BenchResult:
    """exCID dup policies: PGCID-per-dup (prototype) vs subfield derivation."""
    res = BenchResult(
        exp_id="ablation-dup-policy",
        title="MPI_Comm_dup: consensus vs PGCID-per-dup vs subfield derivation",
    )
    s = res.series_for("per-iteration dup time")
    s.add("consensus", osu_comm_dup(nodes, ppn, "world"))
    s.add("pgcid-per-dup", osu_comm_dup(nodes, ppn, "sessions", dup_policy="pgcid-per-dup"))
    s.add("subfield", osu_comm_dup(nodes, ppn, "sessions", dup_policy="subfield"))
    return res


def ablation_fragmentation(nodes: int = 2, ppn: int = 8, holes: int = 48) -> BenchResult:
    """CID-space fragmentation: consensus degrades, exCID does not (§IV-C2)."""
    from repro.api import SimSpec, run_mpi

    res = BenchResult(
        exp_id="ablation-fragmentation",
        title=f"MPI_Comm_dup with {holes} fragmented CID slots",
    )
    series = res.series_for("per-iteration dup time")

    def measure(mode: str, fragment: bool) -> float:
        machine = jupiter(nodes)
        config = (
            MpiConfig.sessions_prototype("subfield") if mode == "sessions" else MpiConfig.baseline()
        )
        spec = SimSpec(nprocs=nodes * ppn, machine=machine, ppn=ppn,
                       config=config)
        out: List[float] = []

        def main(mpi):
            if mode == "world":
                comm = yield from mpi.mpi_init()
            else:
                session = yield from mpi.session_init()
                group = yield from session.group_from_pset("mpi://world")
                comm = yield from mpi.comm_create_from_group(group, "frag")
            if fragment:
                # Each rank's local CID table gets holes at *different*
                # indices: the worst case for the consensus search.
                sentinel = object()
                for i in range(holes):
                    idx = 2 + i * 2 + (comm.rank % 2)
                    if mpi.cid_table.is_free(idx):
                        mpi.cid_table.reserve(idx, sentinel)
            yield from comm.barrier()
            t0 = mpi.engine.now
            iters = 10
            for _ in range(iters):
                dup = yield from comm.dup()
                dup.free()
            yield from comm.barrier()
            if comm.rank == 0:
                out.append((mpi.engine.now - t0) / iters)
            if mode == "world":
                yield from mpi.mpi_finalize()
            else:
                comm.free()
                yield from session.finalize()

        run_mpi(spec, main)
        return out[0]

    series.add("consensus/clean", measure("world", False))
    series.add("consensus/fragmented", measure("world", True))
    series.add("excid/clean", measure("sessions", False))
    series.add("excid/fragmented", measure("sessions", True))
    return res


def ablation_grpcomm(nodes_list: Optional[List[int]] = None, ppn: int = 8) -> BenchResult:
    """PMIx group construct: hierarchical tree vs flat all-to-all exchange."""
    from repro.api import SimSpec, run_mpi

    nodes_list = nodes_list or [2, 4, 8, 16]
    res = BenchResult(
        exp_id="ablation-grpcomm",
        title="PMIx group-construct wire strategy (warm), by node count",
    )

    def measure(nodes: int, mode: str) -> float:
        machine = jupiter(nodes)
        spec = SimSpec(nprocs=nodes * ppn, machine=machine, ppn=ppn,
                       config=MpiConfig.sessions_prototype(),
                       grpcomm_mode=mode)
        out: List[float] = []

        def main(mpi):
            session = yield from mpi.session_init()
            group = yield from session.group_from_pset("mpi://world")
            comm = yield from mpi.comm_create_from_group(group, "warmup")
            yield from comm.barrier()
            t0 = mpi.engine.now
            comm2 = yield from mpi.comm_create_from_group(group, "timed")
            yield from comm2.barrier()
            if comm.rank == 0:
                out.append(mpi.engine.now - t0)
            comm2.free()
            comm.free()
            yield from session.finalize()

        run_mpi(spec, main)
        return out[0]

    tree = res.series_for("tree (hierarchical)")
    flat = res.series_for("flat all-to-all")
    for nodes in nodes_list:
        tree.add(nodes, measure(nodes, "tree"))
        flat.add(nodes, measure(nodes, "flat"))
    return res


def ablation_eager_limit(
    limits=(256, 4096, 65536), sizes=(64, 4096, 65536, 1048576)
) -> BenchResult:
    """Eager/rendezvous crossover: where does the RTS/CTS handshake pay?

    Small messages suffer when forced through rendezvous (extra round
    trip dominates); large messages are insensitive (bandwidth-bound).
    """
    from repro.bench.osu import osu_bw

    res = BenchResult(
        exp_id="ablation-eager-limit",
        title="Bandwidth by message size for different eager limits",
    )
    for limit in limits:
        machine = jupiter(1).replace(eager_limit=limit)
        bw = osu_bw("world", sizes=sizes, machine=machine)
        series = res.series_for(f"eager_limit={limit}")
        for size in sizes:
            series.add(size, bw[size])
    return res


def ablation_handshake(pairs: int = 4, sizes=(1, 64, 4096)) -> BenchResult:
    """exCID handshake on vs forced-extended-headers: isolates the
    per-message cost the local-CID switch avoids."""
    from repro.api import SimSpec, run_mpi

    res = BenchResult(
        exp_id="ablation-handshake",
        title="Message rate: exCID switch vs always-extended headers",
    )

    def measure(always_extended: bool) -> Dict[int, float]:
        config = MpiConfig.sessions_prototype()
        config.excid_always_extended = always_extended
        machine = jupiter(1)
        spec = SimSpec(nprocs=2 * pairs, machine=machine, ppn=2 * pairs,
                       config=config)
        rates: Dict[int, float] = {}

        def main(mpi):
            session = yield from mpi.session_init()
            group = yield from session.group_from_pset("mpi://world")
            comm = yield from mpi.comm_create_from_group(group, "hs")
            rank = comm.rank
            is_sender = rank < pairs
            peer = rank + pairs if is_sender else rank - pairs
            window, iters = 32, 8
            for size in sizes:
                yield from comm.barrier()
                t0 = mpi.engine.now
                for _ in range(iters):
                    if is_sender:
                        reqs = []
                        for _w in range(window):
                            reqs.append((yield from comm.isend(None, peer, tag=2, nbytes=size)))
                        for req in reqs:
                            yield from req.wait()
                        yield from comm.recv(peer, tag=4)
                    else:
                        reqs = [comm.irecv(source=peer, tag=2) for _w in range(window)]
                        for req in reqs:
                            yield from req.wait()
                        yield from comm.send(None, peer, tag=4, nbytes=4)
                if rank == 0:
                    rates[size] = pairs * iters * window / (mpi.engine.now - t0)
            comm.free()
            yield from session.finalize()

        run_mpi(spec, main)
        return rates

    normal = measure(False)
    forced = measure(True)
    ratio = res.series_for("forced-extended / normal message rate")
    for size in sizes:
        ratio.add(size, forced[size] / normal[size])
    return res


# ---------------------------------------------------------------------------
# Supplementary (not a paper figure): collectives
# ---------------------------------------------------------------------------
def supplementary_collectives() -> BenchResult:
    """Collective latency: Sessions-derived vs MPI_Init communicators."""
    res = BenchResult(
        exp_id="supplementary-collectives",
        title="Collective latency: Sessions/MPI_Init ratio by size at 2x8 ranks",
    )
    for op in ("allreduce", "bcast", "barrier", "allgather", "alltoall"):
        base = osu_collective("world", op)
        sess = osu_collective("sessions", op)
        for size, t in base.items():
            res.series_for(op).add(size, sess[size] / t)
            if op == "allreduce":
                res.series_for("MPI_Init allreduce latency").add(size, t)
    barrier = res.series_for("MPI_Init barrier latency")
    for nodes in (2, 8):
        barrier.add(f"{nodes}x4 ranks",
                    osu_collective("world", "barrier", nodes=nodes, ppn=4)[0])
    return res


def entry_points() -> Dict[str, "object"]:
    """Name -> callable for every table/figure/ablation/supplementary sweep.
    Single source of truth for ``python -m repro figure``, the claims table
    and the sweep runner."""
    return {
        name: fn
        for name, fn in globals().items()
        if name.startswith(("fig", "table", "ablation_", "supplementary_"))
        and callable(fn)
    }


def run_point(figure: str, **kwargs) -> dict:
    """Sweep-friendly wrapper: run one figure, return its JSON payload.

    Module-level (hence picklable for ``repro.sweep``) and payload-valued
    (hence cacheable); reconstruct with ``BenchResult.from_payload``.
    """
    return entry_points()[figure](**kwargs).to_payload()
