"""Several MPI jobs co-hosted on one DVM (the PRRTE model)."""

from repro.api import SimSpec, make_world
from repro.cluster import Cluster
from repro.machine.presets import laptop
from repro.ompi.config import MpiConfig
from repro.ompi.constants import SUM


def sessions_main(tag):
    def main(mpi):
        session = yield from mpi.session_init()
        group = yield from session.group_from_pset("mpi://world")
        comm = yield from mpi.comm_create_from_group(group, tag)
        total = yield from comm.allreduce(1, op=SUM)
        pgcid = comm.excid.pgcid
        comm.free()
        yield from session.finalize()
        return (total, pgcid)

    return main


def test_two_jobs_share_one_dvm():
    cluster = Cluster(machine=laptop(num_nodes=2))
    wa = make_world(spec=SimSpec(nprocs=4, ppn=2,
                                 config=MpiConfig.sessions_prototype()),
                    cluster=cluster)
    wb = make_world(spec=SimSpec(nprocs=6, ppn=3,
                                 config=MpiConfig.sessions_prototype()),
                    cluster=cluster)
    assert wa.job.nspace != wb.job.nspace

    pa = wa.spawn_ranks(sessions_main("job-a"))
    pb = wb.spawn_ranks(sessions_main("job-b"))
    cluster.run()
    for p in pa + pb:
        if p.exception:
            raise p.exception

    totals_a = {p.result[0] for p in pa}
    totals_b = {p.result[0] for p in pb}
    assert totals_a == {4} and totals_b == {6}

    # PGCIDs are unique across the whole allocation, not per job —
    # the property the exCID design leans on (§III-B3).
    pgcids_a = {p.result[1] for p in pa}
    pgcids_b = {p.result[1] for p in pb}
    assert len(pgcids_a) == 1 and len(pgcids_b) == 1
    assert pgcids_a != pgcids_b


def test_jobs_do_not_cross_talk():
    """Same-tag communicators in different jobs never match traffic."""
    cluster = Cluster(machine=laptop(num_nodes=1))

    def pingpong(payload):
        def main(mpi):
            session = yield from mpi.session_init()
            group = yield from session.group_from_pset("mpi://world")
            comm = yield from mpi.comm_create_from_group(group, "same-tag")
            if comm.rank == 0:
                yield from comm.send(payload, 1, tag=1)
                got = None
            else:
                got = yield from comm.recv(0, tag=1)
            comm.free()
            yield from session.finalize()
            return got

        return main

    wa = make_world(spec=SimSpec(nprocs=2, ppn=2,
                                 config=MpiConfig.sessions_prototype()),
                    cluster=cluster)
    wb = make_world(spec=SimSpec(nprocs=2, ppn=2,
                                 config=MpiConfig.sessions_prototype()),
                    cluster=cluster)
    pa = wa.spawn_ranks(pingpong("from-A"))
    pb = wb.spawn_ranks(pingpong("from-B"))
    cluster.run()
    for p in pa + pb:
        if p.exception:
            raise p.exception
    assert pa[1].result == "from-A"
    assert pb[1].result == "from-B"


def test_machine_and_cluster_conflict_rejected():
    import pytest

    cluster = Cluster(machine=laptop(num_nodes=1))
    with pytest.raises(ValueError):
        make_world(spec=SimSpec(nprocs=2, machine=laptop(num_nodes=2)),
                   cluster=cluster)


def test_finished_jobs_do_not_accumulate_on_a_shared_cluster():
    """A DVM that hosts job after job holds the running ones only: once a
    finished world is dropped, its runtimes, clients and processes — and
    everything the servers kept of its namespace — are gone."""
    import gc
    from collections import Counter

    from repro.machine.presets import jupiter
    from tests._objcount import JOBS

    cluster = Cluster(machine=jupiter(4))

    def run_job(name):
        main, config = JOBS[name]
        world = make_world(SimSpec(nprocs=64, ppn=16, config=config()),
                           cluster=cluster)
        procs = world.spawn_ranks(main, args=(lambda: None,))
        cluster.run()
        for proc in procs:
            if proc.exception is not None:
                raise proc.exception

    def census():
        for _ in range(3):      # nested atomic tuples untrack one level per pass
            gc.collect()
        # A plain dict of ints is not itself a GC-tracked object.
        return dict(Counter(type(obj).__name__ for obj in gc.get_objects()))

    kinds2 = census()       # discarded: a first census fills ABC caches
    for job in range(1, 7):
        run_job(("sessions", "mpi_init")[job % 2])
        if job == 2:
            kinds2 = census()
    kinds6 = census()
    grown = {kind: n - kinds2.get(kind, 0) for kind, n in kinds6.items()
             if n != kinds2.get(kind, 0)}
    # MpiRuntime / PmixClient / SimProcess first of all: +256 each at the
    # parent of this test, which pruned neither FaultManager table.
    assert not grown, f"four more finished jobs left behind {grown}"
    # The first job is no exception: the fault manager's default job is
    # its coordinates, not the ``Job``.
    alive = {kind: kinds6.get(kind, 0)
             for kind in ("MpiRuntime", "PmixClient", "SimProcess", "Job")}
    assert not any(alive.values()), alive


def test_a_kill_is_announced_to_the_ranks_of_registered_jobs_only():
    """A death costs one logical notification event per MPI rank of the
    jobs still registered: a finished job that was dropped gives its
    ranks back (at the parent of this test the kill below cost 15)."""
    from repro.simtime.process import Sleep

    cluster = Cluster(machine=laptop(num_nodes=2))

    def main(mpi):
        yield from mpi.mpi_init()
        yield from mpi.mpi_finalize()

    first = make_world(SimSpec(nprocs=6, ppn=3), cluster=cluster)
    first.spawn_ranks(main)
    cluster.run()
    del first

    world = make_world(SimSpec(nprocs=4, ppn=2), cluster=cluster)
    procs = world.spawn_ranks(main)

    def late():
        while not all(p.finished for p in procs):
            yield Sleep(50e-6)
        before = cluster.engine.events_executed
        cluster.faults.kill_rank(world.job, 3)
        yield Sleep(2 * cluster.machine.daemon_failure_detect)
        return cluster.engine.events_executed - before

    watcher = cluster.spawn(late(), name="late")
    cluster.run()
    # As on a cluster of its own (tests/faults/test_ompi_faults.py): one
    # notification per rank (4) + the PMIx event broadcast + the wake-up.
    assert watcher.result == 9
