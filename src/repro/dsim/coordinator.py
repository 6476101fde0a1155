"""The conservative-window coordinator (parent-process side).

One simulated world, partitioned by node across N forked workers.  The
parent never builds the world: it forks the workers (mirroring the
``repro.serve.pool`` pipe/fork idiom), then drives the classic
synchronous conservative loop:

    global_next = min(worker peeks ∪ pending envelope arrivals)
    window_end  = global_next + L          (L = inter-node latency floor)
    inject pending envelopes, run every partition to < window_end,
    collect fresh outbound envelopes, repeat.

Safety argument (docs/performance.md "Partitioned execution"): any
message sent at time t >= global_next arrives at t' >= t + L >=
window_end, so nothing injected at the next barrier can land inside the
window a partition already executed.  The lookahead L
(:func:`lookahead_for`) is the smallest cross-node delivery floor in
the model; fault-injected delays and FIFO floors only *raise* arrival
times, so the bound holds under every fault plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api import RunResult, SimSpec
from repro.dsim.merge import merge_counters, merge_metrics, merge_tracers
from repro.dsim.partition import PartitionError, PartitionMap, validate_plan
from repro.dsim.worker import WorkerSetup, worker_main
from repro.machine.presets import laptop
from repro.simtime.engine import DeadlockError


@dataclass
class DsimResult(RunResult):
    """Merged outcome of one partitioned run: the :class:`RunResult` an
    in-process run of the same spec returns (``world`` is ``None`` —
    each worker owned a replica) plus the machinery's own meters."""

    nparts: int = 1
    windows: int = 0
    boundary_msgs: int = 0
    partition_events: List[int] = field(default_factory=list)

    def raise_first_failure(self) -> None:
        if self.failures:
            rank = min(self.failures)
            raise PartitionRankError(rank, *self.failures[rank])


class PartitionRankError(RuntimeError):
    """A rank program failed inside a worker partition."""

    def __init__(self, rank: int, type_name: str, message: str) -> None:
        super().__init__(f"rank {rank}: {type_name}: {message}")
        self.rank = rank
        self.type_name = type_name
        self.message = message


class WorkerFailed(RuntimeError):
    """A partition worker died or reported an internal error."""


def lookahead_for(machine) -> float:
    """The conservative lookahead L for a machine model.

    Every cross-node delivery path has a latency floor:

    * ob1 packets ride the network BTL: ``delivery = done +
      wire_time`` with ``done > now``, so the floor is
      ``inter_node_latency``;
    * RML daemon messages book ``process_cost + server_msg_cost/2``
      (with ``process_cost = server_msg_cost/2``), so the floor is
      ``server_msg_cost``;
    * revoke control fan-out uses ``machine.wire_time`` —
      ``inter_node_latency`` again.

    L is the *minimum* of those floors — on a fast interconnect the
    BTL latency dominates the window size, on a slow one (laptop's
    20us wire) the RML software floor does.
    """
    return min(machine.inter_node_latency, machine.server_msg_cost)


def _check(reply, pid: int, expect: str):
    if not isinstance(reply, tuple) or not reply:
        raise WorkerFailed(f"partition {pid}: malformed reply {reply!r}")
    if reply[0] == "error":
        _, tname, msg, tb = reply
        raise WorkerFailed(
            f"partition {pid} failed: {tname}: {msg}\n{tb}")
    if reply[0] != expect:
        raise WorkerFailed(
            f"partition {pid}: expected {expect!r}, got {reply[0]!r}")
    return reply


def run_partitioned(
    spec: SimSpec,
    main,
    *,
    args: tuple = (),
    plan=None,
    traced: bool = False,
    metrics_on: bool = False,
) -> DsimResult:
    """Run ``main`` on every rank of ``spec`` across ``spec.partitions``
    worker processes; returns the merged :class:`DsimResult`.

    Raises :class:`PartitionError` when the run cannot be partitioned
    (more partitions than nodes, a fault plan that is not
    partition-safe, the reference scheduler, or a live tracer on the
    spec — workers build their own; ``repro.api.run_world`` is the
    caller that turns a spec tracer into ``traced=True``).  Rank results
    must be picklable.  Runs go to quiescence (no
    ``until`` horizon); a global deadlock raises
    :class:`~repro.simtime.engine.DeadlockError` like the in-process
    engine would.
    """
    import multiprocessing

    from repro.serve.pool import default_mp_context

    nparts = spec.partitions
    if nparts < 1:
        raise PartitionError("need at least one partition")
    if spec.tracer is not None:
        raise PartitionError(
            "partitioned runs build per-worker tracers; pass traced=True "
            "instead of attaching a tracer to the spec")
    if spec.engine_compat:
        raise PartitionError(
            "engine_compat runs on the reference scheduler, which has no "
            "window-bounded execution; use partitions=1")
    machine = spec.machine or laptop()
    pmap = PartitionMap(nparts, machine.num_nodes)
    validate_plan(plan, nparts)
    lookahead = lookahead_for(machine)
    setup = WorkerSetup(spec, main, args=args, plan=plan, traced=traced,
                        metrics_on=metrics_on)

    method = default_mp_context()
    if method != "fork":
        raise PartitionError(
            "repro.dsim needs the fork start method (worker setup is "
            "inherited, not pickled)")
    ctx = multiprocessing.get_context(method)
    conns = []
    procs = []
    try:
        for pid in range(nparts):
            parent, child = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=worker_main,
                               args=(child, pid, pmap, setup),
                               name=f"dsim-worker-{pid}", daemon=True)
            proc.start()
            child.close()
            conns.append(parent)
            procs.append(proc)

        peeks: List[Optional[float]] = []
        for pid, conn in enumerate(conns):
            reply = _check(_recv(conn, pid), pid, "ready")
            peeks.append(reply[1])

        pending: List[list] = [[] for _ in range(nparts)]
        windows = 0
        boundary_msgs = 0
        while True:
            times = [p for p in peeks if p is not None]
            for bucket in pending:
                times.extend(env[2] for env in bucket)
            if not times:
                break
            window_end = min(times) + lookahead
            for pid, conn in enumerate(conns):
                conn.send(("window", window_end, pending[pid]))
            pending = [[] for _ in range(nparts)]
            for pid, conn in enumerate(conns):
                reply = _check(_recv(conn, pid), pid, "ok")
                _, outbound, peek = reply
                peeks[pid] = peek
                for env in outbound:
                    pending[env[1]].append(env)
                    boundary_msgs += 1
            windows += 1

        blobs = []
        for pid, conn in enumerate(conns):
            conn.send(("finish",))
            blobs.append(_check(_recv(conn, pid), pid, "result")[1])
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()

    return _merge(nparts, windows, boundary_msgs, blobs,
                  traced=traced, metrics_on=metrics_on)


def _recv(conn, pid: int):
    try:
        return conn.recv()
    except (EOFError, OSError) as err:
        raise WorkerFailed(f"partition {pid} died: {err}") from err


def _merge(nparts: int, windows: int, boundary_msgs: int, blobs: List[dict],
           *, traced: bool, metrics_on: bool) -> DsimResult:
    t_end = max(b["now"] for b in blobs)
    live = [name for b in blobs for name in b["live"]]
    if live:
        shown = ", ".join(sorted(live)[:10]) + (" …" if len(live) > 10 else "")
        raise DeadlockError(
            f"simulation deadlock: {len(live)} process(es) blocked forever "
            f"at t={t_end}: {shown}")

    results: Dict[int, Any] = {}
    failures: Dict[int, Tuple[str, str]] = {}
    dead: set = set()
    for b in blobs:
        results.update(b["results"])
        failures.update(b["failures"])
        dead.update(b["dead_ranks"])

    tracer = None
    if traced:
        tracer = merge_tracers((b["pid"], b["tracer"]) for b in blobs)
    metrics = None
    if metrics_on:
        metrics = merge_metrics([b["metrics"] for b in blobs], tracer)
        metrics.inc("dsim.window.advance", windows, force=True)
        metrics.inc("dsim.boundary.msgs", boundary_msgs, force=True)

    return DsimResult(
        nparts=nparts,
        t_end=t_end,
        events=sum(b["events"] for b in blobs),
        windows=windows,
        boundary_msgs=boundary_msgs,
        results=results,
        failures=failures,
        dead_ranks=sorted(dead),
        counters=merge_counters(blobs),
        tracer=tracer,
        metrics=metrics,
        partition_events=[b["events"] for b in blobs],
    )
