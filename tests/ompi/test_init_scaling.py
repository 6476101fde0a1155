"""Deterministic scaling gate: per-rank work of the Fig-3 init jobs is flat.

Wall clock is noisy; the number of Python-level calls made inside
``src/repro`` is not — it repeats exactly.  Both Fig-3 jobs (the
Sessions sequence and ``MPI_Init``) are run under ``sys.setprofile`` at
two world sizes, and calls *per simulated rank* may grow by at most
25 % over a 4x larger world.  Anything a rank or a server re-derives
about the whole world (re-verifying a sorted participant tuple,
re-walking every blob of an exchange payload, a set-of-all-members per
group) grows that ratio with N and trips the gate; exchange volume that
is inherently O(N) per server (one dict store per collected blob) does
not — it is a few calls per server, not per rank.  The simulation of
one ``serve-cold`` request has a ceiling of its own.
"""

from __future__ import annotations

import os

import pytest

from repro.api import SimSpec, make_world
from repro.machine.presets import jupiter
from repro.ompi.config import MpiConfig
from repro.serve.registry import run_simspec
from tests._callcount import counting_calls
from tests.test_numpy_lazy import run_fresh

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PPN = 16


def sessions_main(mpi):
    session = yield from mpi.session_init()
    group = yield from session.group_from_pset("mpi://world")
    comm = yield from mpi.comm_create_from_group(group, "scaling")
    yield from comm.barrier()
    comm.free()
    yield from session.finalize()


def world_main(mpi):
    yield from mpi.mpi_init()
    yield from mpi.mpi_finalize()


JOBS = {
    "sessions": (sessions_main, MpiConfig.sessions_prototype),
    "mpi_init": (world_main, MpiConfig.baseline),
}


def calls_per_rank(job: str, nodes: int) -> float:
    """Python-level calls inside src/repro per simulated rank, for one
    job from world construction to quiescence."""
    main, config = JOBS[job]
    with counting_calls() as tally:
        world = make_world(SimSpec(nprocs=nodes * PPN, machine=jupiter(nodes),
                                   ppn=PPN, config=config()))
        procs = world.spawn_ranks(main)
        world.run()
    for proc in procs:
        if proc.exception is not None:
            raise proc.exception
    calls = tally.total
    assert calls > nodes * PPN      # the hook saw the run
    return calls / (nodes * PPN)


#: Calls per rank at 128 ranks may not rise either; achieved 366.1 and
#: 236.3 (410.1 / 278.3 while a rank kept its instance lifecycle in an
#: OPAL subsystem registry and cleanup stack and opened, selected and
#: closed three MCA frameworks; 519.8 / 387.0 while an untraced run still
#: called the null tracer, read the clock through a property, sized
#: payloads with generators and rescanned a node's participants per
#: arrival; 584.6 / 423.8 while a rank registered ten cleanup entries and
#: every server merged a collected fence entry by entry).
CEILING = {"sessions": 375, "mpi_init": 250}

#: One ``serve-cold`` request's simulation (the Sessions program of
#: ``run_simspec`` on jupiter 2x8) from its spec payload to the digest,
#: as the first job of a process: 9 035 calls (9 739 with the OPAL
#: registry and MCA frameworks above), 11 953 before the changes above
#: (9 807 while each world built a metrics registry and the first job
#: imported ``repro.obs.metrics``).
SIMSPEC_CEILING = 9100


def simspec_job(seed: int = 3) -> dict:
    """Run one ``serve-cold`` request's simulation."""
    spec = SimSpec(nprocs=16, machine=jupiter(2), ppn=8,
                   config=MpiConfig.sessions_prototype())
    return run_simspec(spec.to_payload(), "sessions", seed)


@pytest.mark.parametrize("job", sorted(JOBS))
def test_calls_per_rank_flat_128_to_512(job):
    small = calls_per_rank(job, 8)
    large = calls_per_rank(job, 32)
    assert small <= CEILING[job], (
        f"{job}: {small:.1f} calls/rank at 128 ranks (ceiling {CEILING[job]})")
    assert large <= 1.25 * small, (
        f"{job}: {large:.0f} calls/rank at 512 ranks vs {small:.0f} at 128 "
        f"({large / small:.2f}x): something re-derives world-sized facts per rank"
    )


def test_calls_per_simspec_job():
    """Counted in a fresh interpreter, so the first job of a process
    pays its one-time costs (the modules it imports lazily) here too,
    whatever ran before this test."""
    run_fresh(f"""
        import sys
        sys.path.insert(0, {ROOT!r})
        from tests._callcount import counting_calls
        from tests.ompi.test_init_scaling import SIMSPEC_CEILING, simspec_job

        with counting_calls() as tally:
            simspec_job()
        assert tally.total <= SIMSPEC_CEILING, (
            f"{{tally.total}} calls for the first run_simspec job of a "
            f"process (ceiling {{SIMSPEC_CEILING}}); calls by function:\\n"
            f"{{tally.top(15)}}")
    """)


@pytest.mark.slow
@pytest.mark.parametrize("job", sorted(JOBS))
def test_calls_per_rank_flat_64_to_4096(job):
    small = calls_per_rank(job, 4)
    large = calls_per_rank(job, 256)
    print(f"\n{job}: {small:.0f} calls/rank at 64 ranks, {large:.0f} at 4096 "
          f"({large / small:.2f}x)")
    assert large <= 1.25 * small
