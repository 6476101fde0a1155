"""Fig 3 as a tier-1 contract (ROADMAP item 6(1)).

The paper-shape assertions for Fig 3 live in ``benchmarks/test_fig3_init.py``,
which tier-1 never collects, so a calibration or protocol change on the
init path could break the reproduction with tier-1 green.  These two
checks run the same ``osu_init`` port at CI scale, in simulated time (no
``pytest-benchmark`` fixture: there is nothing wall-clock to time), and
each failure quotes the claim it encodes and the tolerance.
"""

from __future__ import annotations

from repro.bench.osu import osu_init


def test_sessions_init_costs_about_a_fifth_more_than_mpi_init():
    sessions = osu_init(4, 16, "sessions").total
    world = osu_init(4, 16, "world").total
    ratio = sessions / world
    assert 1.05 < ratio < 1.6, (
        f"Sessions / MPI_Init init time at 4 nodes x 16 ppn is {ratio:.3f} "
        f"({sessions:.4f} s / {world:.4f} s).  Paper §IV-C1, Fig 3: the "
        "Sessions sequence (MPI_Session_init + MPI_Group_from_session_pset + "
        "MPI_Comm_create_from_group) costs ~20% more than MPI_Init.  "
        "Tolerance: ratio inside (1.05, 1.6)."
    )


def test_session_handle_is_about_a_third_of_the_sessions_specific_time():
    timing = osu_init(4, 28, "sessions")
    share = timing.handle / (timing.handle + timing.comm_construct)
    assert 0.2 < share < 0.45, (
        f"session-handle share of the Sessions-specific init time at 4 nodes x "
        f"28 ppn is {share:.3f} (handle {timing.handle:.4f} s, communicator "
        f"construction {timing.comm_construct:.4f} s).  Paper §IV-C1: at 28 "
        "ppn ~30% of the Sessions-specific time is session-handle "
        "initialization, the remainder communicator construction.  "
        "Tolerance: share inside (0.2, 0.45)."
    )
