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
the limits below.  See
docs/performance.md, "Footprint and lifetime of a rank".
"""

from __future__ import annotations

import pytest

from tests._objcount import JOBS, fresh_pair_us_per_rank, gc_passes, marginal, sample, survivors

#: job -> (objects, KB) per rank; achieved 45.3 / 8.29 and 44.3 / 8.35
#: (55.3 / 9.15 and 54.3 / 9.21 with the OPAL registry, cleanup stack
#: and three MCA frameworks per rank).  ``MPI_Init`` is no longer
#: heavier by a per-server copy of its modex: the servers of a world
#: hold the one collected table between them.
LIMITS = {"sessions": (50, 8.8), "mpi_init": (50, 8.9)}


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


@pytest.mark.slow
@pytest.mark.parametrize("job", sorted(JOBS))
def test_record_footprint_1024_and_4096(job, capsys):
    """Records, does not gate: the 4096-rank question of ROADMAP item 3
    (how much does the collector re-walk, and what is left of a world
    once it is dropped) gets a number per run."""
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
    """ROADMAP item 3's 1.5x question (per-rank wall of a Fig-3 pair at
    4096 ranks over the same at 64, collector on), by the fresh-process
    protocol of docs/performance.md: recorded on every run; a wall-clock
    ratio is gated only where it holds with room to spare."""
    rounds = [(fresh_pair_us_per_rank(4), fresh_pair_us_per_rank(256))
              for _ in range(5)]
    small = sorted(r[0] for r in rounds)[2]
    large = sorted(r[1] for r in rounds)[2]
    with capsys.disabled():
        print(f"\nper-rank wall of one MPI_Init + Sessions pair, medians of 5 "
              f"alternating rounds: 64 ranks {small:.1f} us, 4096 ranks "
              f"{large:.1f} us ({large / small:.2f}x; ROADMAP gate 1.5x)")
