"""Chaos-soak scenario for the fault-recovery layer (docs/recovery.md).

One :func:`soak_run` boots a recovery-enabled cluster, installs a
seed-deterministic *survivable* fault plan (lossy RML links plus timed
proc/node kills), and runs a rank program that rides the faults out:

    compute loop -> damage detected -> revoke -> agree -> shrink ->
    allreduce over the shrunk communicator.

The acceptance contract (ISSUE.md): every run completes in bounded
simulated time, every fence that saw PROC_ABORTED was retried by the
survivors, the shrunk communicator has a fresh CID spanning exactly the
survivors, and the final allreduce result is correct.  The whole run is
deterministic per seed — same seed, same trace, same digest.

Shared by ``python -m repro recovery`` (the chaos-soak CLI) and
``tests/recovery/test_soak.py`` (the seed-swept property test).
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, Optional

from repro.api import SimSpec, run_world
from repro.faults import FaultPlan, random_plan
from repro.machine.presets import laptop
from repro.ompi.constants import SUM
from repro.ompi.errors import ERRORS_RETURN, MPIErrProcFailed, MPIErrRevoked
from repro.simtime.process import Sleep

# Timeline (seconds of simulated time).  mpi_init for 8 ranks on the
# laptop preset ends near t=0.003, so the fault window opens mid-way
# through the compute loop, and T_SAFE sits past the window plus the
# failure detection latency: by T_SAFE every survivor has observed
# every death.
FAULT_START = 0.05
FAULT_HORIZON = 0.05
T_SAFE = 0.15
# One 0.5s collective timeout plus a full retry must fit comfortably.
SIM_BOUND = 3.0
# Fixed iteration count (not wall-clock) keeps all ranks in lock-step:
# ~70 * (allreduce + 2ms sleep) spans [~0.003, ~0.145], covering the
# fault window for every rank without time-based divergence.
LOOP_ITERS = 70


def _soak_main(mpi, t_safe: float):
    """The rank program: compute until damaged, then recover."""
    world = yield from mpi.mpi_init()
    world.set_errhandler(ERRORS_RETURN)
    damaged = False
    for _ in range(LOOP_ITERS):
        if world.failed_peers or world.revoked:
            damaged = True
            break
        try:
            yield from world.allreduce(1, op=SUM)
        except (MPIErrProcFailed, MPIErrRevoked):
            damaged = True
            break
        yield Sleep(2.0e-3)
    if damaged:
        world.revoke()
    # Let the fault window close so all survivors agree on the damage.
    while mpi.wtime() < t_safe:
        yield Sleep(1.0e-3)
    flag = yield from world.agree(True)
    shrunk = yield from world.shrink()
    total = yield from shrunk.allreduce(shrunk.rank, op=SUM)
    expected = shrunk.size * (shrunk.size - 1) // 2
    return {
        "rank": mpi.rank_in_job,
        "damaged": damaged,
        "flag": flag,
        "shrunk_size": shrunk.size,
        "shrunk_cid": shrunk.local_cid,
        "world_cid": world.local_cid,
        "sum": total,
        "ok": bool(flag) and total == expected,
    }


def soak_plan(seed: int, *, num_ranks: int, num_nodes: int,
              with_node_kill: bool = True, lossy: bool = True,
              partition_safe: bool = False) -> FaultPlan:
    """The per-seed fault plan: a survivable random plan, plus (so every
    soak run exercises the full recovery stack, per the acceptance
    criteria) one guaranteed lossy RML link and one guaranteed non-HNP
    node kill inside the fault window.

    ``partition_safe=True`` draws from the restricted action pool that
    ``repro.dsim`` can replicate deterministically: timed kills only (no
    ``after_count`` triggers, which count messages globally) and
    src-pinned lossy RML links (so exactly one partition observes each
    matching message).  Still seed-deterministic and survivable."""
    if partition_safe:
        rng = random.Random(seed)
        plan = FaultPlan()
        # Timed rank kills drawn from the upper ranks (rank 0 survives:
        # it anchors the shrink results the record asserts on).
        for _ in range(1 + rng.randrange(2)):
            plan.kill_proc(rng.randrange(1, num_ranks),
                           at_time=FAULT_START + rng.random() * FAULT_HORIZON)
        if lossy:
            for _ in range(1 + rng.randrange(2)):
                plan.lossy_link(0.15, seed=seed ^ 0x5EED, layer="rml",
                                src=rng.randrange(num_nodes),
                                at_time=FAULT_START, max_hits=4)
        if with_node_kill and num_nodes > 1:
            plan.kill_node(1 + seed % (num_nodes - 1),
                           at_time=FAULT_START + 0.4 * FAULT_HORIZON)
        return plan
    plan = random_plan(
        seed,
        survivable=True,
        num_ranks=num_ranks,
        num_nodes=num_nodes,
        start_at=FAULT_START,
        horizon=FAULT_HORIZON,
        n_actions=5,
    )
    if lossy:
        plan.lossy_link(0.15, seed=seed ^ 0x5EED, layer="rml",
                        at_time=FAULT_START, max_hits=8)
    if with_node_kill and num_nodes > 1:
        plan.kill_node(1 + seed % (num_nodes - 1),
                       at_time=FAULT_START + 0.4 * FAULT_HORIZON)
    return plan


def soak_run(
    seed: int,
    *,
    num_nodes: int = 4,
    num_ranks: int = 8,
    with_node_kill: bool = True,
    lossy: bool = True,
    config=None,
    tracer=None,
    return_world: bool = False,
    partitions: int = 1,
    partition_safe: bool = False,
) -> Dict[str, Any]:
    """One chaos-soak run.  Returns a deterministic result record;
    ``result["ok"]`` is the pass/fail verdict.  ``return_world=True``
    additionally returns the (quiesced) world, for post-mortem
    inspection — metric harvesting, trace export.

    ``partitions=N`` runs the soak across N worker processes
    (``repro.dsim``); this requires ``partition_safe=True`` (the default
    plan's message-count triggers are rejected) and produces a record —
    digest included — identical to the ``partitions=1`` run of the same
    arguments; the returned world is then ``None`` (each worker owned a
    replica)."""
    res = run_world(
        SimSpec(
            nprocs=num_ranks,
            machine=laptop(num_nodes=num_nodes),
            ppn=max(1, num_ranks // num_nodes),
            config=config,
            tracer=tracer,
            recovery=True,
            recovery_seed=seed,
            partitions=partitions,
        ),
        _soak_main, args=(T_SAFE,),
        plan=soak_plan(seed, num_ranks=num_ranks, num_nodes=num_nodes,
                       with_node_kill=with_node_kill, lossy=lossy,
                       partition_safe=partition_safe))
    bounded = res.t_end < SIM_BOUND
    expected_size = num_ranks - len(res.dead_ranks)

    errors = []
    results = []
    for rank in range(num_ranks):
        if rank in res.dead_ranks:
            continue
        if rank in res.failures:
            tname, msg = res.failures[rank]
            errors.append(f"rank {rank}: {tname}: {msg}")
        else:
            results.append(res.results[rank])

    sizes = sorted({r["shrunk_size"] for r in results})
    fresh_cids = all(r["shrunk_cid"] != r["world_cid"] for r in results)
    ok = (
        bounded
        and not errors
        and len(results) == expected_size
        and all(r["ok"] for r in results)
        and sizes == [expected_size]
        and fresh_cids
    )

    c = res.counters
    record = {
        "seed": seed,
        "ok": ok,
        "bounded": bounded,
        "t_end": res.t_end,
        "dead_ranks": res.dead_ranks,
        "survivors": len(results),
        "shrunk_sizes": sizes,
        "fresh_cids": fresh_cids,
        "errors": errors,
        "fence_retries": c["dvm.fence_retries"],
        "retransmits": c["rml.retransmits"],
        "dup_suppressed": c["rml.dup_suppressed"],
        "retry_exhausted": c["rml.retry_exhausted"],
        "reparents": c["dvm.heals"],
        "grpcomm_restarts": c["dvm.grpcomm_restarts"],
        "revokes": c["recovery_stats"].get("revoke", 0),
        "agrees": c["recovery_stats"].get("agree", 0),
        "shrinks": c["recovery_stats"].get("shrink", 0),
        "events": res.events,
    }
    record["digest"] = digest(record)
    if return_world:
        return record, res.world
    return record


def digest(record: Dict[str, Any]) -> str:
    """Canonical sha256 over a result record (minus any digest field):
    two runs of the same seed must produce the same digest."""
    import hashlib     # kept off the import path of a plain simulation

    clean = {k: v for k, v in record.items() if k != "digest"}
    blob = json.dumps(clean, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
