"""Deterministic footprint gate: what one simulated rank keeps alive.

Both Fig-3 jobs are sampled by rank 0 right after the barrier that
follows init (``tests/_objcount.py``) at 128 and at 512 ranks; the
*marginal* GC-tracked objects and ``tracemalloc`` kilobytes per rank
between the two worlds are gated.  The §III-B5 instance lifecycle
(``ompi/instance``) must cost a rank no closure at all: it is three
plain fields of the rank's runtime.  On failure the heaviest allocation sites
are printed, so a regression arrives attributed to a ``file:line``.

Two rounds took it here.  Closure-free cleanup stack, module-level
component tables and slotted per-rank records: 147.9 objects / 21.3 KB
(sessions) and 154.5 / 23.5 KB (``MPI_Init``) -> 74.9 / 11.45 and 80.5 /
13.65.  One modex table per world instead of a copy per server, one
lifecycle record per rank instead of ten cleanup tuples, fault-only
containers made on first use: -> 59.5 / 9.62 and 60.5 / 9.83.  No OPAL
subsystem registry, cleanup stack or MCA frameworks per rank (the
lifecycle is a refcount, a flag and an epoch count on the runtime): ->
45.3 / 8.29 and 44.3 / 8.35.  No pass-through generator frame on a
waiting rank's stack, the PML counters in slots, the early-packet
stashes, staged PMIx puts, rendezvous list and unexpected queues made on
first use, and slotted sessions, exCIDs and communicators: -> the limits
below.  See docs/performance.md, "Footprint and lifetime of a rank".
The waiting stack itself is held by ``test_a_waiting_rank_holds_*``.
"""

from __future__ import annotations

import pytest

from repro.api import SimSpec, make_world
from repro.machine.presets import jupiter
from repro.ompi.config import MpiConfig
from repro.ompi.constants import SUM
from repro.simtime.process import Sleep
from tests._objcount import JOBS, fresh_pair_us_per_rank, gc_passes, marginal, sample, survivors

#: job -> (objects, KB) per rank; achieved 39.7 / 6.79 and 38.5 / 6.82
#: (45.3 / 8.29 and 44.3 / 8.35 while a rank waiting in the post-init
#: barrier held six generator frames, four of them pass-through, and
#: every endpoint a six-key counter dict; 55.3 / 9.15 and 54.3 / 9.21
#: with the OPAL registry, cleanup stack and three MCA frameworks per
#: rank).  ``MPI_Init`` is no longer heavier by a per-server copy of its
#: modex: the servers of a world hold the one collected table between
#: them.
LIMITS = {"sessions": (42, 7.0), "mpi_init": (42, 7.0)}


@pytest.mark.parametrize("job", sorted(JOBS))
def test_marginal_footprint_per_rank_128_to_512(job):
    m = marginal(sample(job, 8), sample(job, 32))
    max_objects, max_kb = LIMITS[job]
    assert m.objects_per_rank <= max_objects and m.kb_per_rank <= max_kb, (
        f"{job}: a rank keeps {m.objects_per_rank:.1f} GC-tracked objects and "
        f"{m.kb_per_rank:.2f} KB alive after init (limits {max_objects} / "
        f"{max_kb} KB); heaviest sites and types per rank:\n{m.top(10)}"
    )
    owned = m.owned_by("ompi/instance")
    assert owned == 0, (
        f"{job}: {owned:.2f} functions + closure cells per rank defined in "
        f"ompi/instance: {m.closures}"
    )


def _waiting_stacks(collective) -> set:
    """The generator chains, from the rank program down, of ranks 1..63
    of an untraced 64-rank Sessions world blocked in ``collective(comm)``
    while rank 0 has not entered it yet."""
    def main(mpi):
        session = yield from mpi.session_init()
        group = yield from session.group_from_pset("mpi://world")
        comm = yield from mpi.comm_create_from_group(group, "waiting")
        if comm.rank == 0:
            yield Sleep(1000.0)
        yield from collective(comm)

    world = make_world(SimSpec(nprocs=64, machine=jupiter(4), ppn=16,
                               config=MpiConfig.sessions_prototype()))
    procs = world.spawn_ranks(main)
    world.run(until=500.0)
    stacks = set()
    for proc in procs[1:]:
        chain, gen = [], proc.gen
        while gen is not None:
            chain.append(gen.gi_code.co_name)
            gen = gen.gi_yieldfrom
        stacks.add(" > ".join(chain))
    return stacks


def test_a_waiting_rank_holds_only_its_program_and_the_algorithm():
    """A blocked rank keeps no pass-through frame: the communicator's
    entry point returns the algorithm's generator and the algorithm
    yields ``Wait`` on its receive itself."""
    assert _waiting_stacks(lambda comm: comm.barrier()) == {"main > _tree_barrier"}
    assert _waiting_stacks(lambda comm: comm.allreduce(1, op=SUM)) == {
        "main > allreduce_indexed"}


@pytest.mark.slow
@pytest.mark.parametrize("job", sorted(JOBS))
def test_record_footprint_1024_and_4096(job, capsys):
    """Records, does not gate: per rank at 1024 and 4096 ranks, the
    objects and bytes of the whole process, the collector passes of one
    job, and what of a dropped world outlives it with the collector off;
    then the marginal footprint between the two sizes."""
    samples = {nodes * 16: sample(job, nodes) for nodes in (64, 256)}
    lines = []
    for ranks, s in samples.items():
        kb = sum(size for size, _ in s.sites.values()) / 1024
        passes = gc_passes(job, ranks // 16)
        left = sum(survivors(job, ranks // 16).values())
        lines.append(
            f"{job} @ {ranks}: whole process / ranks = "
            f"{sum(s.objects.values()) / ranks:.1f} objects, {kb / ranks:.2f} KB; "
            f"gen-0/1/2 passes per job {passes[0]}/{passes[1]}/{passes[2]}, "
            f"per rank {passes[0] / ranks:.3f}/{passes[1] / ranks:.4f}/"
            f"{passes[2] / ranks:.5f}; {left} objects ({left / ranks:.2f} per "
            f"rank) outlive the dropped world with the collector off")
    m = marginal(samples[1024], samples[4096])
    lines.append(f"{job} marginal 1024 -> 4096: {m.objects_per_rank:.1f} objects, "
                 f"{m.kb_per_rank:.2f} KB per rank")
    with capsys.disabled():
        print("\n" + "\n".join(lines))


@pytest.mark.slow
def test_record_per_rank_wall_64_vs_4096(capsys):
    """Records, does not gate: the per-rank wall of a Fig-3 pair at 4096
    ranks and at 64 and their ratio (collector on), by the fresh-process
    protocol of docs/performance.md."""
    rounds = [(fresh_pair_us_per_rank(4), fresh_pair_us_per_rank(256))
              for _ in range(5)]
    small = sorted(r[0] for r in rounds)[2]
    large = sorted(r[1] for r in rounds)[2]
    with capsys.disabled():
        print(f"\nper-rank wall of one MPI_Init + Sessions pair, medians of 5 "
              f"alternating rounds: 64 ranks {small:.1f} us, 4096 ranks "
              f"{large:.1f} us ({large / small:.2f}x)")
