"""The per-partition worker process.

Each worker builds the *full* world from the same :class:`SimSpec`
(construction is synchronous and deterministic, so every partition
agrees on topology, routing trees, psets and namespaces), then spawns
only its local ranks and attaches the cross-partition boundary.  From
then on it is a command loop over the parent pipe::

    <- ("ready", peek)                        after construction
    -> ("window", end, envelopes)             inject, run_window(end)
    <- ("ok", outbound, peek)
    -> ("finish",)
    <- ("result", blob)                       counters, results, trace

Replication rules (what runs everywhere vs. owner-only) live in the
:class:`~repro.faults.FaultManager` (``faults.dsim``) and in the
non-owner filtering below; the invariant throughout is that *summing*
any logical counter across partitions reproduces the single-process
value, and that every event executes at the same simulated time it
would have executed in one process.
"""

from __future__ import annotations

import traceback
from functools import partial
from typing import Any, Dict, List, Optional

from repro.api import SimSpec, harvest, make_world
from repro.dsim.envelope import Boundary, RequestTokens, decode_packet
from repro.dsim.partition import PartitionCtx, PartitionMap
from repro.simtime.trace import Tracer


class WorkerSetup:
    """Everything a worker needs to build its world (fork-inherited)."""

    def __init__(self, spec: SimSpec, main, args=(), plan=None,
                 traced: bool = False, metrics_on: bool = False) -> None:
        self.spec = spec
        self.main = main
        self.args = tuple(args)
        self.plan = plan
        self.traced = traced
        self.metrics_on = metrics_on


class WorkerState:
    """The built world plus partition wiring, bundled for the loop."""

    def __init__(self, ctx: PartitionCtx, world, boundary: Boundary,
                 tokens: RequestTokens, local: List[int], procs: List[Any],
                 tracer: Optional[Tracer]) -> None:
        self.ctx = ctx
        self.world = world
        self.cluster = world.cluster
        self.engine = world.cluster.engine
        self.boundary = boundary
        self.tokens = tokens
        self.local = local
        self.procs = procs
        self.tracer = tracer


def build_partition(pid: int, pmap: PartitionMap, setup: WorkerSetup) -> WorkerState:
    """Construct one partition's replica of the world.

    Runs in the worker process (or inline, for tests).  The tracer gets
    a disjoint id space (``id_start=pid+1, id_step=nparts``) so merged
    sids/fids never collide and a flow id shipped inside an envelope
    still names the sender's allocation at the receiver.
    """
    ctx = PartitionCtx(pid, pmap)
    tracer = None
    if setup.traced:
        tracer = Tracer(id_start=pid + 1, id_step=pmap.nparts)
    spec = setup.spec.replace(tracer=tracer, partitions=1)
    world = make_world(spec=spec)
    cluster = world.cluster
    ctx.bind_job(world.job.nspace, world.job.topology)

    tokens = RequestTokens(pid)
    boundary = Boundary(ctx, cluster.engine, tokens)
    cluster.dvm.rml.boundary = boundary
    world.fabric.boundary = boundary
    cluster.faults.dsim = ctx

    topo = world.job.topology
    local = [r for r in range(world.num_ranks) if ctx.owns_node(topo.node_of(r))]
    # A death costs one notification event per MPI rank; count only the
    # local ranks so the per-partition counts sum to the single-process
    # R notifications.
    cluster.faults.mpi_ranks[world.job.nspace] = len(local)

    if setup.metrics_on:
        cluster.metrics.enabled = True
    if setup.plan is not None:
        cluster.install_faults(setup.plan)
    if tracer is not None and pid != 0:
        # Replicated construction emits the launch instant everywhere;
        # it belongs to the HNP's partition only.
        tracer.instants[:] = [i for i in tracer.instants
                              if i.name != "prrte.dvm.launch"]
    procs = world.spawn_ranks(setup.main, setup.args, ranks=local)
    return WorkerState(ctx, world, boundary, tokens, local, procs, tracer)


def inject_envelopes(state: WorkerState, envelopes: list) -> None:
    """Schedule cross-partition arrivals, mirroring the local shapes.

    Envelopes are sorted by ``(arrival, origin)`` so same-instant
    arrivals keep the deterministic global send order; each is then
    scheduled exactly as the sender-side code would have, with the
    sender-side callable: one ``post_at`` per rml message
    (``call_at_batch`` for fault duplicates), one ``post_at`` per pml
    packet copy.  Lookahead
    guarantees every arrival is in this partition's future.
    """
    if not envelopes:
        return
    engine = state.engine
    rml = state.cluster.dvm.rml
    fabric = state.world.fabric
    for env in sorted(envelopes, key=lambda e: (e[2], e[3])):
        kind, _dst_pid, arrival, _origin, payload, copies = env
        if kind == "rml":
            arrive = partial(rml._arrive, payload, rml._daemons[payload.dst])
            if copies == 1:
                engine.post_at(arrival, arrive)
            else:
                engine.call_at_batch(arrival, [arrive] * copies)
        elif kind == "pml":
            dst, slots = payload
            pkt = decode_packet(slots, state.tokens)
            arrive = partial(fabric.endpoint(dst).deliver, pkt)
            for _ in range(copies):
                engine.post_at(arrival, arrive)
        else:  # "ctl": out-of-band control traffic (revoke fan-out)
            dst, (op, ident) = payload
            if op != "revoke":
                raise ValueError(f"unknown dsim ctl op {op!r}")
            ep = fabric._endpoints.get(dst)
            if ep is None:
                # Mirrors the sender-side ``ep is None: continue`` in
                # Communicator.revoke: the peer deregistered (died) or
                # never finished init.
                continue
            engine.post_at(arrival, partial(ep.runtime.remote_revoke, ident))


def _sanitize_attrs(attrs: Dict[str, Any]) -> None:
    # Exporters stringify non-primitive attr values anyway (see
    # repro.obs.export._args); doing it before pickling keeps arbitrary
    # layer objects out of the pipe without changing exported bytes.
    for k, v in attrs.items():
        if not isinstance(v, (str, int, float, bool, type(None))):
            attrs[k] = str(v)


def sanitize_tracer(tracer: Tracer) -> Tracer:
    for s in tracer.spans.values():
        _sanitize_attrs(s.attrs)
    for i in tracer.instants:
        _sanitize_attrs(i.attrs)
    for f in tracer.flows.values():
        _sanitize_attrs(f.attrs)
    return tracer


def result_blob(state: WorkerState, setup: WorkerSetup) -> Dict[str, Any]:
    """Everything the coordinator needs to merge this partition."""
    res = harvest(state.world, state.procs, state.local, setup.metrics_on)
    metrics_dump = None
    if setup.metrics_on:
        m = res.metrics
        metrics_dump = (
            dict(m.counters), dict(m.gauges),
            {k: (h.values, h._count, h._total, h._min, h._max)
             for k, h in m.histograms.items()},
        )
    return {
        "pid": state.ctx.pid,
        "now": res.t_end,
        "events": res.events,
        "live": sorted(getattr(p, "name", "?") for p in state.engine._live),
        "results": res.results,
        "failures": res.failures,
        "dead_ranks": res.dead_ranks,
        "shipped": state.boundary.shipped,
        "counters": res.counters,
        "tracer": sanitize_tracer(state.tracer) if state.tracer else None,
        "metrics": metrics_dump,
    }


def worker_main(conn, pid: int, pmap: PartitionMap, setup: WorkerSetup) -> None:
    """Worker entry point (fork start method: ``setup`` never pickles)."""
    try:
        state = build_partition(pid, pmap, setup)
        conn.send(("ready", state.engine.peek_next_time()))
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "window":
                inject_envelopes(state, cmd[2])
                state.engine.run_window(cmd[1])
                conn.send(("ok", state.boundary.drain(),
                           state.engine.peek_next_time()))
            elif op == "finish":
                conn.send(("result", result_blob(state, setup)))
                conn.close()
                return
            else:
                raise RuntimeError(f"unknown dsim command {op!r}")
    except BaseException as err:  # noqa: BLE001 — forwarded to the parent
        try:
            conn.send(("error", type(err).__name__, str(err),
                       traceback.format_exc()))
        except Exception:
            pass
        raise SystemExit(1)
