"""The seven workloads: what one repetition does, through public calls only.

A workload is a fixed list of *ops* -- one op is one call of a public
entry point of the stack -- run in an order drawn from ``--seed``.  The
program under test only ever sees the generated inputs (job order, ring
permutation seed, soak seeds, request sequence); which parameters a
workload uses is fixed here, so every repetition of a run does the same
work and every seed does the same amount of it.

Why each workload exists is recorded in ``BENCHMARK.json`` (the four its
driver gates), in ``run.py``'s ``UNGATED`` (the other three) and in the
README's workload table.  ``SIZES`` holds the measured sizes and the toy
sizes ``--smoke`` swaps in; both go through the same code.
"""

from __future__ import annotations

import dataclasses
import json
import random
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.api import SimSpec, make_world
from repro.apps.twomesh.driver import PROBLEMS, run_twomesh
from repro.bench.hpcc import hpcc_ring_latency
from repro.bench.osu import osu_collective, osu_comm_dup, osu_mbw_mr
from repro.machine.presets import jupiter
from repro.obs import LiveTelemetry
from repro.obs.metrics import snapshot_cluster
from repro.ompi.config import MpiConfig
from repro.recovery import soak_run
from repro.serve import ResultStore, ServeClient, ServerThread

Op = Tuple[str, Callable[[], Any]]

#: Counters read off a quiesced world (traced runs only).  The LIVE ones
#: are counted only while the world's metrics registry is enabled, which
#: a workload can arrange only for a world it builds itself.
SNAPSHOT_COUNTERS = ("simtime.events", "rml.messages", "rml.bytes",
                     "pml.packets", "pml.bytes", "prrte.pgcid.allocated")
LIVE_COUNTERS = ("pml.unexpected_hits", "pmix.group.collectives")

#: soak-50 draws its 50 seeds from this many disjoint windows of 0..699.
SOAK_WINDOWS = 14

SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "init-small": {"full": dict(nodes=4, ppn=16, pairs=20),
                   "smoke": dict(nodes=2, ppn=4, pairs=2)},
    "init-1k": {"full": dict(nodes=64, ppn=16, pairs=1),
                "smoke": dict(nodes=4, ppn=8, pairs=1)},
    "dup-pgcid": {"full": dict(nodes=8, ppn=16, iterations=40),
                  "smoke": dict(nodes=2, ppn=4, iterations=4)},
    "msg-mix": {"full": dict(nodes=4, ppn=16, dup_iters=20, pairs=8,
                             ring_nodes=2, ring_ppn=28, mesh_ranks=64,
                             mesh_couplings=3),
                "smoke": dict(nodes=2, ppn=4, dup_iters=2, pairs=2,
                              ring_nodes=2, ring_ppn=4, mesh_ranks=32,
                              mesh_couplings=1)},
    "soak-50": {"full": dict(seeds=50), "smoke": dict(seeds=2)},
    "serve-cold": {"full": dict(nodes=2, ppn=8, keys=150, requests=150),
                   "smoke": dict(nodes=2, ppn=2, keys=8, requests=8)},
    "serve-hot": {"full": dict(nodes=2, ppn=8, keys=64, requests=3000),
                  "smoke": dict(nodes=2, ppn=2, keys=4, requests=40)},
}


@dataclass
class Workload:
    """One repetition's op list plus what is needed to judge its outputs."""

    ops: List[Op]
    ranks: int                          # simulated ranks whose results one repetition returns
    norm: Callable[[Any], Any]          # raw op value -> the JSON value golden.json holds
    ok: Callable[[Any], bool] = lambda value: True
    record: Dict[str, Any] = field(default_factory=dict)    # loop / clients / workers
    counts: bool = False                # it owns its worlds and can read their counters
    counting: bool = False              # set around the one counted repetition
    counters: Dict[str, float] = field(default_factory=dict)
    server: Any = None                  # serve-*: the ServerThread ...
    telemetry: Any = None               # ... and, in a traced run, its LiveTelemetry
    stack: ExitStack = field(default_factory=ExitStack)

    def close(self) -> None:
        self.stack.close()

    def count(self, world: Any, t_end: float) -> None:
        """Add one quiesced world's counters to this repetition's totals."""
        metrics = world.cluster.metrics
        names = SNAPSHOT_COUNTERS + (LIVE_COUNTERS if metrics.enabled else ())
        snapshot_cluster(metrics, world.cluster, world)
        for name in names:
            total = metrics.aggregate(name).get("total", 0.0)
            self.counters[name] = self.counters.get(name, 0.0) + total
        self.counters["model.sim_time_s"] = (
            self.counters.get("model.sim_time_s", 0.0) + t_end)


def _jsonable(value: Any) -> Any:
    """What ``value`` reads back as from golden.json (int keys become
    strings, tuples lists; floats round-trip exactly)."""
    return json.loads(json.dumps(value))


def _shuffled(ops: List[Op], seed: int) -> List[Op]:
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# init-small / init-1k: Fig 3 pairs on a world the benchmark owns
# ---------------------------------------------------------------------------
def world_main(mpi):
    t0 = mpi.engine.now
    yield from mpi.mpi_init()
    t1 = mpi.engine.now
    yield from mpi.mpi_finalize()
    return t1 - t0


def sessions_main(mpi):
    t0 = mpi.engine.now
    session = yield from mpi.session_init()
    group = yield from session.group_from_pset("mpi://world")
    comm = yield from mpi.comm_create_from_group(group, "suite-init")
    yield from comm.barrier()
    t1 = mpi.engine.now
    comm.free()
    yield from session.finalize()
    return t1 - t0


def _init_job(wl: Workload, nodes: int, ppn: int, mode: str) -> Dict[str, Any]:
    """One job, start to quiescence; world construction is part of it
    because users pay it on every run."""
    config = (MpiConfig.baseline() if mode == "world"
              else MpiConfig.sessions_prototype())
    world = make_world(SimSpec(nprocs=nodes * ppn, machine=jupiter(nodes),
                               ppn=ppn, config=config))
    if wl.counting:
        world.cluster.metrics.enabled = True
    procs = world.spawn_ranks(world_main if mode == "world" else sessions_main)
    t_end = world.run()
    for proc in procs:
        if proc.exception is not None:
            raise proc.exception
    if wl.counting:
        wl.count(world, t_end)
    return {"t_end": t_end, "init_s": max(proc.result for proc in procs),
            "events_executed": world.cluster.engine.events_executed}


def _init(seed: int, size: Dict[str, int]) -> Workload:
    nodes, ppn, pairs = size["nodes"], size["ppn"], size["pairs"]
    wl = Workload(ops=[], ranks=2 * pairs * nodes * ppn, norm=_jsonable,
                  counts=True)
    for mode in ("world", "sessions"):
        op = (f"init/{mode}/{nodes}x{ppn}",
              lambda mode=mode: _init_job(wl, nodes, ppn, mode))
        wl.ops.extend([op] * pairs)
    _shuffled(wl.ops, seed)
    return wl


# ---------------------------------------------------------------------------
# dup-pgcid / msg-mix: the paper's microbenchmarks and 2MESH
# ---------------------------------------------------------------------------
def _dup_pgcid(seed: int, size: Dict[str, int]) -> Workload:
    nodes, ppn, iters = size["nodes"], size["ppn"], size["iterations"]
    op = (f"dup/sessions/{nodes}x{ppn}/i{iters}",
          lambda: osu_comm_dup(nodes, ppn, "sessions", iterations=iters))
    return Workload(ops=[op], ranks=nodes * ppn, norm=_jsonable)


def _msg_mix(seed: int, size: Dict[str, int]) -> Workload:
    nodes, ppn, pairs = size["nodes"], size["ppn"], size["pairs"]
    rnodes, rppn = size["ring_nodes"], size["ring_ppn"]
    mesh = dataclasses.replace(PROBLEMS["P1"], ranks=size["mesh_ranks"],
                               couplings=size["mesh_couplings"])
    mesh_key = f"twomesh/P1-{mesh.ranks}r-{mesh.couplings}c"
    ops: List[Op] = [
        (f"dup/world/{nodes}x{ppn}/i{size['dup_iters']}",
         lambda: osu_comm_dup(nodes, ppn, "world", iterations=size["dup_iters"])),
        (f"mbw/sessions/p{pairs}", lambda: osu_mbw_mr("sessions", pairs)),
        (f"mbw/world/p{pairs}", lambda: osu_mbw_mr("world", pairs)),
        (f"coll/sessions/allreduce/{nodes}x{ppn}",
         lambda: osu_collective("sessions", "allreduce", nodes, ppn)),
        (f"ring/sessions/random/{rnodes}x{rppn}/s{seed}",
         lambda: hpcc_ring_latency(rnodes, rppn, "sessions", "random", seed=seed)),
        (f"{mesh_key}/sessions", lambda: run_twomesh(mesh, True)),
        (f"{mesh_key}/baseline", lambda: run_twomesh(mesh, False)),
    ]
    ranks = 2 * nodes * ppn + 2 * 2 * pairs + rnodes * rppn + 2 * mesh.ranks
    return Workload(ops=_shuffled(ops, seed), ranks=ranks, norm=_jsonable)


# ---------------------------------------------------------------------------
# soak-50: recovery on, faults injected
# ---------------------------------------------------------------------------
def _soak(seed: int, size: Dict[str, int]) -> Workload:
    seeds = size["seeds"]
    wl = Workload(ops=[], ranks=8 * seeds, counts=True,
                  norm=lambda record: record["digest"],
                  ok=lambda record: bool(record["ok"]))

    def run(soak_seed: int) -> Dict[str, Any]:
        record, world = soak_run(soak_seed, return_world=True)
        if wl.counting:
            wl.count(world, record["t_end"])
        return record

    # Seeds 0..699 all ride their faults out at this commit; further up some
    # do not (README, "A finding"), and a workload must not contain a failing op.
    base = (seed % SOAK_WINDOWS) * seeds
    wl.ops = _shuffled([(f"soak/{base + i}", lambda s=base + i: run(s))
                        for i in range(seeds)], seed)
    return wl


# ---------------------------------------------------------------------------
# serve-cold / serve-hot: one server, one pool worker, one client, closed loop
# ---------------------------------------------------------------------------
def _serve(name: str, seed: int, size: Dict[str, int], traced: bool) -> Workload:
    nodes, ppn = size["nodes"], size["ppn"]
    keys, requests = size["keys"], size["requests"]
    hot = name == "serve-hot"
    spec = SimSpec(nprocs=nodes * ppn, machine=jupiter(nodes), ppn=ppn,
                   config=MpiConfig.sessions_prototype()).to_payload()
    wl = Workload(
        ops=[], ranks=requests * nodes * ppn,
        norm=lambda resp: resp["result"]["digest"],
        ok=lambda resp: resp["status"] == "ok" and resp["cached"] is hot,
        record={"loop": "closed", "clients": 1, "workers": 1})
    # Cold keeps one resident entry, so with more keys than that every
    # request misses, runs and is put -- in every repetition alike.
    store = ResultStore() if hot else ResultStore(hot_capacity=1)
    wl.telemetry = LiveTelemetry() if traced else None
    wl.server = wl.stack.enter_context(ServerThread(
        workers=1, store=store, telemetry=wl.telemetry))
    client = wl.stack.enter_context(ServeClient(wl.server.address))

    def submit(key: int):
        return client.submit("sim", {"spec": spec, "program": "sessions",
                                     "seed": key})

    rng = random.Random(seed)
    if hot:
        for key in range(keys):
            if submit(key)["status"] != "ok":
                raise RuntimeError(f"serve-hot: pre-fill of key {key} failed")
        sequence = [rng.randrange(keys) for _ in range(requests)]
    else:
        sequence = list(range(keys))
        rng.shuffle(sequence)
    wl.ops = [(f"sim/sessions/{nodes}x{ppn}/{key}", lambda key=key: submit(key))
              for key in sequence]
    return wl


def build(name: str, seed: int, smoke: bool, traced: bool) -> Workload:
    """Set one workload up (for serve-*: server, pool and pre-fill too)."""
    size = SIZES[name]["smoke" if smoke else "full"]
    if name.startswith("serve-"):
        return _serve(name, seed, size, traced)
    builder = {"init-small": _init, "init-1k": _init, "dup-pgcid": _dup_pgcid,
               "msg-mix": _msg_mix, "soak-50": _soak}[name]
    return builder(seed, size)
