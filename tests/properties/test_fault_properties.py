"""Properties of seeded-random fault plans (docs/faults.md).

For *any* seed, a chaos run must satisfy the fault-injection contract:

* bounded termination — the simulation quiesces, no hang;
* every rank ends in a classifiable state: ok, typed error, or killed;
* the surviving process-set membership is exactly (all ranks − the
  dead), i.e. pset state and liveness state never disagree;
* the whole run is bit-deterministic: same seed, same plan, same
  outcomes, same trace — byte for byte.
"""

import pytest

from repro.cluster import Cluster
from repro.faults import random_plan
from repro.machine.presets import laptop
from repro.pmix.types import PmixError
from repro.simtime.process import ProcessKilled, Sleep
from repro.simtime.trace import Tracer

pytestmark = pytest.mark.faults

RANKS = 8
NODES = 4
SIM_BOUND = 2.0


def run_chaos(seed: int, trace: bool = False):
    """One seeded chaos run: 8 ranks / 4 nodes, three fences each,
    random faults from ``random_plan(seed)``.  Returns (outcomes,
    dead_rank_set, surviving pset members, fault-instant reprs, final
    time)."""
    tracer = Tracer() if trace else None
    cluster = Cluster(machine=laptop(num_nodes=NODES), tracer=tracer)
    job = cluster.launch(RANKS, ppn=RANKS // NODES)
    cluster.psets.define("chaos/all", [job.proc(r) for r in range(RANKS)])
    cluster.install_faults(random_plan(seed, num_ranks=RANKS, num_nodes=NODES))
    outcomes = {}

    def rank_proc(rank):
        client = job.client(rank)
        yield from client.init()
        done = 0
        try:
            for _ in range(3):
                yield from client.fence()
                done += 1
                yield Sleep(2e-4)
            outcomes[rank] = ("ok", done)
        except PmixError as err:
            outcomes[rank] = ("err", err.status, done)

    procs = []
    for rank in range(RANKS):
        sim = cluster.spawn(rank_proc(rank), name=f"rank{rank}")
        cluster.faults.register_rank_proc(job.proc(rank), sim)
        procs.append(sim)
    for p in procs:
        p.defuse()
    cluster.run()
    for rank, sim in enumerate(procs):
        if isinstance(sim.exception, ProcessKilled):
            outcomes[rank] = ("killed",)
    dead_ranks = {p.rank for p in cluster.faults.dead_procs}
    members = cluster.psets.members("chaos/all")
    records = [repr(i) for i in tracer.instants
               if i.track == "events:faults"] if tracer else []
    return outcomes, dead_ranks, members, records, cluster.now


@pytest.mark.parametrize("seed", range(8))
def test_chaos_run_satisfies_contract(seed):
    outcomes, dead_ranks, members, _records, now = run_chaos(seed)
    # Bounded termination, whatever the plan did.
    assert now < SIM_BOUND, f"seed {seed} overran the bound: t={now}"
    # Every rank is accounted for with a classifiable outcome.
    assert set(outcomes) == set(range(RANKS))
    for rank, out in outcomes.items():
        assert out[0] in ("ok", "err", "killed"), (seed, rank, out)
        # "killed" implies registered dead; the converse need not hold —
        # a timed kill may land after the rank already ran to completion.
        if out[0] == "killed":
            assert rank in dead_ranks, (seed, rank, out)
    # Rank 0 is protected by construction.
    assert 0 not in dead_ranks
    # Pset membership agrees with liveness exactly: the survivors and
    # nothing else.
    member_ranks = {p.rank for p in members}
    assert member_ranks == set(range(RANKS)) - dead_ranks, (seed, member_ranks)


@pytest.mark.parametrize("seed", [3, 11])
def test_chaos_run_is_bit_deterministic(seed):
    a = run_chaos(seed, trace=True)
    b = run_chaos(seed, trace=True)
    out_a, dead_a, members_a, records_a, now_a = a
    out_b, dead_b, members_b, records_b, now_b = b
    assert out_a == out_b
    assert dead_a == dead_b
    assert members_a == members_b
    assert now_a == now_b
    # Byte-identical fault traces, timestamps included.
    assert records_a == records_b


def test_different_seeds_differ_somewhere():
    """Not a hard guarantee seed-by-seed, but across a handful of seeds
    the plans must not all collapse to identical behaviour."""
    runs = [run_chaos(seed, trace=True)[3] for seed in range(4)]
    assert len({tuple(r) for r in runs}) > 1
