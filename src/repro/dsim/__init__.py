"""Conservative parallel simulation of one world across processes.

``repro.dsim`` shards a single simulated world *by node* across N
forked worker partitions.  Each partition runs the ordinary fast-path
:class:`~repro.simtime.engine.Engine` over its local daemons and ranks;
cross-partition RML/ob1 traffic is exchanged at conservative
time-window barriers whose lookahead is the per-link latency floor of
the :class:`~repro.machine.model.MachineModel` (see
docs/performance.md, "Partitioned execution").

The contract is *bit-equivalence*: a partitioned run produces the same
per-rank results, final clock, total event count, layer counters, soak
digests and (canonically normalized) Perfetto traces as the
single-process reference — including under partition-safe fault plans.
``SimSpec(partitions=1)`` (the default) never touches this package.

The entry point is ``SimSpec.partitions``: ``repro.api.run_world`` (and
so ``run_mpi``, ``repro.obs.run_scenario``, ``repro.recovery.soak_run``,
``osu_init`` and serve's ``sim`` scenario) is the one caller of
:func:`run_partitioned` in ``src/repro`` and returns the same
:class:`~repro.api.RunResult` shape either way::

    from repro.api import SimSpec, run_world
    res = run_world(SimSpec(nprocs=64, machine=..., partitions=4), rank_main)
    res.t_end, res.events, res.result_list(64)
"""

from repro.dsim.coordinator import (
    DsimResult,
    PartitionRankError,
    WorkerFailed,
    run_partitioned,
)
from repro.dsim.partition import (
    PartitionCtx,
    PartitionError,
    PartitionMap,
    validate_plan,
)

__all__ = [
    "DsimResult",
    "PartitionCtx",
    "PartitionError",
    "PartitionMap",
    "PartitionRankError",
    "WorkerFailed",
    "run_partitioned",
    "validate_plan",
]
