"""Fault-tolerance scenarios from paper §II-C.

* Roll-forward: after a process failure, survivors re-initialize MPI
  (a fresh session) and continue with whatever resources remain —
  "redistributing application data is then entirely under user
  control".
* Isolation: a failure inside one session's communicator does not
  poison a different session.
"""

import pytest

from repro.api import SimSpec, make_world
from repro.machine.presets import laptop
from repro.ompi.config import MpiConfig
from repro.ompi.constants import SUM
from repro.ompi.group import Group
from repro.pmix.types import PMIX_ERR_PROC_TERMINATED
from repro.simtime.process import Sleep


def test_roll_forward_after_failure():
    """4 ranks start a computation; rank 2 dies; the survivors build a
    new communicator over the living processes and finish the job."""
    world = make_world(spec=SimSpec(
        nprocs=4, machine=laptop(num_nodes=2), ppn=2,
        config=MpiConfig.sessions_prototype(),
    ))
    phase1_done = []
    results = {}

    def survivor(mpi):
        dead = set()
        # A long-lived "monitor" session keeps PMIx (and the failure
        # event registration) alive across the compute epochs —
        # finalizing the *last* session would tear the client down and
        # drop the registration with it.
        s_monitor = yield from mpi.session_init()
        mpi.pmix.register_event_handler(
            [PMIX_ERR_PROC_TERMINATED], lambda code, src, info: dead.add(src.rank)
        )
        # --- epoch 1: everyone computes together -----------------------
        s1 = yield from mpi.session_init()
        g1 = yield from s1.group_from_pset("mpi://world")
        c1 = yield from mpi.comm_create_from_group(g1, "epoch1")
        total1 = yield from c1.allreduce(1, op=SUM)
        phase1_done.append(mpi.rank_in_job)
        c1.free()
        yield from s1.finalize()

        # Wait until the failure notice arrives (delivered via PMIx events).
        while not dead:
            yield Sleep(50e-6)

        # --- epoch 2: roll forward with the survivors ------------------
        s2 = yield from mpi.session_init()
        alive = [mpi.job.proc(r) for r in range(4) if r not in dead]
        g2 = Group(alive)
        g2.session = s2
        c2 = yield from mpi.comm_create_from_group(g2, "epoch2")
        total2 = yield from c2.allreduce(1, op=SUM)
        c2.free()
        yield from s2.finalize()
        yield from s_monitor.finalize()
        results[mpi.rank_in_job] = (total1, total2, sorted(dead))
        return "survived"

    def victim(mpi):
        s1 = yield from mpi.session_init()
        g1 = yield from s1.group_from_pset("mpi://world")
        c1 = yield from mpi.comm_create_from_group(g1, "epoch1")
        yield from c1.allreduce(1, op=SUM)
        c1.free()
        yield from s1.finalize()
        yield Sleep(1e9)  # then hangs until killed

    procs = {}
    for rank in (0, 1, 3):
        procs[rank] = world.cluster.spawn(survivor(world.runtimes[rank]), f"r{rank}")
    procs[2] = world.cluster.spawn(victim(world.runtimes[2]), "victim")
    for p in procs.values():
        p.defuse()

    def chaos():
        while len(phase1_done) < 3:
            yield Sleep(50e-6)
        yield Sleep(200e-6)
        world.cluster.fail_process(world.job, 2, procs[2])

    world.cluster.spawn(chaos(), "chaos")
    world.run()

    for rank in (0, 1, 3):
        assert procs[rank].result == "survived"
        total1, total2, dead = results[rank]
        assert total1 == 4          # epoch 1 used all four ranks
        assert total2 == 3          # epoch 2 rolled forward with three
        assert dead == [2]


def test_session_isolation_under_failure():
    """Two sessions per rank; killing a peer that only participates in
    session B's communicator leaves session A fully usable."""
    world = make_world(spec=SimSpec(
        nprocs=3, machine=laptop(num_nodes=1), ppn=3,
        config=MpiConfig.sessions_prototype(),
    ))
    out = {}
    ready = []

    def stable_pair(mpi):
        """Ranks 0 and 1: session A over {0,1}, session B over everyone."""
        dead = set()
        yield from mpi.pmix.init()
        mpi.pmix.register_event_handler(
            [PMIX_ERR_PROC_TERMINATED], lambda code, src, info: dead.add(src.rank)
        )
        sa = yield from mpi.session_init()
        ga = Group([mpi.job.proc(0), mpi.job.proc(1)])
        ga.session = sa
        ca = yield from mpi.comm_create_from_group(ga, "A")

        sb = yield from mpi.session_init()
        gb = yield from sb.group_from_pset("mpi://world")
        cb = yield from mpi.comm_create_from_group(gb, "B")
        yield from cb.allreduce(1, op=SUM)
        ready.append(mpi.rank_in_job)

        while not dead:
            yield Sleep(50e-6)
        # Session B's world is damaged; session A keeps working.
        for _ in range(3):
            total_a = yield from ca.allreduce(1, op=SUM)
        out[mpi.rank_in_job] = total_a
        ca.free()
        yield from sa.finalize()
        cb.free()
        yield from sb.finalize()
        return "ok"

    def victim(mpi):
        sb = yield from mpi.session_init()
        gb = yield from sb.group_from_pset("mpi://world")
        cb = yield from mpi.comm_create_from_group(gb, "B")
        yield from cb.allreduce(1, op=SUM)
        yield Sleep(1e9)

    procs = {
        0: world.cluster.spawn(stable_pair(world.runtimes[0]), "r0"),
        1: world.cluster.spawn(stable_pair(world.runtimes[1]), "r1"),
        2: world.cluster.spawn(victim(world.runtimes[2]), "victim"),
    }
    for p in procs.values():
        p.defuse()

    def chaos():
        while len(ready) < 2:
            yield Sleep(50e-6)
        yield Sleep(100e-6)
        world.cluster.fail_process(world.job, 2, procs[2])

    world.cluster.spawn(chaos(), "chaos")
    world.run()

    assert procs[0].result == "ok" and procs[1].result == "ok"
    assert out[0] == 2 and out[1] == 2


def test_reinit_after_last_finalize_still_hears_of_peer_failures():
    """A rank's registrations live exactly as long as its MPI instance:
    they are dropped by the release that finalizes its last session and
    made again by the next ``session_init``.  A peer that dies after the
    re-init must still reach it — as the PMIx ``PROC_ABORTED`` event and
    as ``MPIErrProcFailed`` on the communicator the death damaged."""
    from repro.ompi.errors import ERRORS_RETURN, MPIErrProcFailed
    from repro.pmix.types import PMIX_ERR_PROC_ABORTED

    world = make_world(spec=SimSpec(
        nprocs=3, machine=laptop(num_nodes=2), ppn=2,
        config=MpiConfig.sessions_prototype(),
    ))
    faults = world.cluster.faults
    registered = []
    ready = []
    out = {}

    def epoch(mpi, tag):
        session = yield from mpi.session_init()
        group = yield from session.group_from_pset("mpi://world")
        comm = yield from mpi.comm_create_from_group(
            group, tag, errhandler=ERRORS_RETURN)
        total = yield from comm.allreduce(1, op=SUM)
        assert total == 3
        return session, comm

    def survivor(mpi):
        session, comm = yield from epoch(mpi, "epoch1")
        comm.free()
        yield from session.finalize()       # the last one: back to uninitialized
        registered.append((mpi.proc in faults._runtimes,
                           mpi.proc in mpi.fabric._endpoints,
                           mpi.proc in mpi.pmix.server.local_clients))

        session, comm = yield from epoch(mpi, "epoch2")
        notified = []
        mpi.pmix.register_event_handler(
            [PMIX_ERR_PROC_ABORTED], lambda code, src, info: notified.append(src.rank))
        ready.append(mpi.rank_in_job)
        for _ in range(200):        # 10 ms: a lost notification fails, not hangs
            if notified and comm.failed_peers:
                break
            yield Sleep(50e-6)
        with pytest.raises(MPIErrProcFailed):
            yield from comm.allreduce(1, op=SUM)
        out[mpi.rank_in_job] = (notified, sorted(comm.failed_peers))
        comm.free()
        yield from session.finalize()
        return "survived"

    def victim(mpi):
        session, comm = yield from epoch(mpi, "epoch1")
        comm.free()
        yield from session.finalize()
        yield from epoch(mpi, "epoch2")
        yield Sleep(1e9)                    # killed below

    procs = world.spawn_ranks(lambda mpi: (victim if mpi.rank_in_job == 2
                                           else survivor)(mpi))

    def chaos():
        while len(ready) < 2:
            yield Sleep(50e-6)
        faults.kill_rank(world.job, 2)

    world.cluster.spawn(chaos(), "chaos")
    world.run()

    assert registered == [(False, False, False)] * 2
    assert [p.result for p in procs[:2]] == ["survived"] * 2
    assert out == {0: ([2], [2]), 1: ([2], [2])}
    assert sorted(faults._runtimes) == [world.job.proc(2)]   # the one never released
