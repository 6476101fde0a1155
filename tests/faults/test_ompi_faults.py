"""OMPI-layer fault matrix: CID consensus, collectives, PML message faults.

The contract mirrors ULFM's "no silent hang" rule: an operation on a
communicator with a failed member either completes (eager sends finish
locally; sub-trees that never touch the victim may succeed) or raises a
typed ``MPIErrProcFailed`` — and either way the simulation quiesces in
bounded time.
"""

import pytest

from repro.api import SimSpec, make_world
from repro.faults import FaultPlan
from repro.machine.presets import laptop
from repro.ompi.constants import SUM
from repro.ompi.errors import ERRORS_RETURN, MPIError
from repro.simtime.engine import DeadlockError
from repro.simtime.process import Sleep
from tests.faults.conftest import SIM_BOUND

pytestmark = pytest.mark.faults


def _spawn(world, gens):
    procs = []
    for rank, gen in enumerate(gens):
        sim = world.cluster.spawn(gen, name=f"rank{rank}")
        world.cluster.faults.register_rank_proc(world.job.proc(rank), sim)
        procs.append(sim)
    for p in procs:
        p.defuse()
    return procs


def _run_bounded(world):
    world.run()
    assert world.cluster.now < SIM_BOUND, (
        f"fault scenario overran the termination bound: t={world.cluster.now}"
    )
    return world.cluster.now


# ---------------------------------------------------------------------------
# Legacy CID consensus x kill_proc (paper §III-B2: the consensus allreduce
# cannot agree once a participant is gone — it must abort, not spin)
# ---------------------------------------------------------------------------
class TestCidConsensusKill:
    def test_kill_during_cid_consensus(self):
        world = make_world(spec=SimSpec(nprocs=6, machine=laptop(num_nodes=2), ppn=3))
        cluster, job = world.cluster, world.job
        outcomes = {}
        entered = []

        def survivor(mpi):
            comm = yield from mpi.mpi_init()
            comm.set_errhandler(ERRORS_RETURN)
            entered.append(mpi.rank_in_job)
            try:
                dup = yield from comm.dup()
                outcomes[mpi.rank_in_job] = ("ok", dup.local_cid)
            except MPIError as err:
                outcomes[mpi.rank_in_job] = ("typed", type(err).__name__)

        def victim(mpi):
            comm = yield from mpi.mpi_init()
            comm.set_errhandler(ERRORS_RETURN)
            yield Sleep(1e9)  # never joins the dup; killed below

        gens = [survivor(world.runtimes[r]) for r in range(5)]
        gens.append(victim(world.runtimes[5]))
        procs = _spawn(world, gens)

        def watcher():
            while len(entered) < 5:
                yield Sleep(50e-6)
            yield Sleep(100e-6)  # survivors are now blocked in the consensus
            cluster.faults.kill_rank(job, 5)

        cluster.spawn(watcher(), name="watcher")
        _run_bounded(world)
        assert [outcomes[r][0] for r in range(5)] == ["typed"] * 5
        assert procs[5].exception is not None


COLLS = {
    "barrier": lambda comm: comm.barrier(),
    "bcast": lambda comm: comm.bcast("payload", root=0),
    "allreduce": lambda comm: comm.allreduce(1, op=SUM),
    "gather": lambda comm: comm.gather(comm.rank, root=0),
    "alltoall": lambda comm: comm.alltoall(list(range(comm.size))),
}


# ---------------------------------------------------------------------------
# Collectives x kill_proc x {before, during}
# ---------------------------------------------------------------------------
class TestCollectivesKillProc:
    def _world(self):
        return make_world(spec=SimSpec(nprocs=4, machine=laptop(num_nodes=2), ppn=2))

    @pytest.mark.parametrize("coll", sorted(COLLS))
    def test_kill_before_collective(self, coll):
        """Damage is known before entry: every survivor gets the typed
        error from the ``_pre_coll`` damage check."""
        world = self._world()
        outcomes = {}
        inited = []

        def survivor(mpi):
            comm = yield from mpi.mpi_init()
            comm.set_errhandler(ERRORS_RETURN)
            inited.append(mpi.rank_in_job)
            while not comm.failed_peers:   # wait for the failure notice
                yield Sleep(50e-6)
            try:
                yield from COLLS[coll](comm)
                outcomes[mpi.rank_in_job] = "ok"
            except MPIError:
                outcomes[mpi.rank_in_job] = "typed"

        def victim(mpi):
            yield from mpi.mpi_init()
            inited.append(mpi.rank_in_job)
            yield Sleep(1e9)

        gens = [survivor(world.runtimes[r]) for r in range(3)]
        gens.append(victim(world.runtimes[3]))
        _spawn(world, gens)

        def watcher():
            while len(inited) < 4:
                yield Sleep(50e-6)
            world.cluster.faults.kill_rank(world.job, 3)

        world.cluster.spawn(watcher(), name="watcher")
        _run_bounded(world)
        assert outcomes == {r: "typed" for r in range(3)}

    @pytest.mark.parametrize("coll", sorted(COLLS))
    def test_kill_during_collective(self, coll):
        """The victim dies while survivors are inside the collective.
        Eager sends complete locally, so ranks whose part of the
        algorithm never waits on the victim may legitimately succeed
        (e.g. bcast leaves) — but nobody may hang."""
        world = self._world()
        outcomes = {}
        entered = []

        def survivor(mpi):
            comm = yield from mpi.mpi_init()
            comm.set_errhandler(ERRORS_RETURN)
            entered.append(mpi.rank_in_job)
            try:
                yield from COLLS[coll](comm)
                outcomes[mpi.rank_in_job] = "ok"
            except MPIError:
                outcomes[mpi.rank_in_job] = "typed"

        def victim(mpi):
            yield from mpi.mpi_init()
            yield Sleep(1e9)

        gens = [survivor(world.runtimes[r]) for r in range(3)]
        gens.append(victim(world.runtimes[3]))
        _spawn(world, gens)

        def watcher():
            while len(entered) < 3:
                yield Sleep(50e-6)
            yield Sleep(100e-6)
            world.cluster.faults.kill_rank(world.job, 3)

        world.cluster.spawn(watcher(), name="watcher")
        _run_bounded(world)
        assert len(outcomes) == 3
        assert set(outcomes.values()) <= {"ok", "typed"}


# ---------------------------------------------------------------------------
# PML message faults: delay/dup are absorbed, drop is a *loud* deadlock
# ---------------------------------------------------------------------------
class TestPmlMessageFaults:
    TAG = 42

    def _pair(self, plan):
        world = make_world(spec=SimSpec(nprocs=2, machine=laptop(num_nodes=2), ppn=1))
        world.cluster.install_faults(plan)
        return world

    def test_delay_preserves_payload_and_order(self):
        world = self._pair(
            FaultPlan().delay_msg(2e-4, layer="pml", tag=self.TAG, max_hits=1)
        )
        got = []

        def sender(mpi):
            comm = yield from mpi.mpi_init()
            for i in range(3):
                yield from comm.send({"i": i}, 1, tag=self.TAG)

        def receiver(mpi):
            comm = yield from mpi.mpi_init()
            for _ in range(3):
                got.append((yield from comm.recv(source=0, tag=self.TAG)))

        _spawn(world, [sender(world.runtimes[0]), receiver(world.runtimes[1])])
        _run_bounded(world)
        # The per-pair delivery floor keeps FIFO despite the delay.
        assert got == [{"i": 0}, {"i": 1}, {"i": 2}]
        assert world.cluster.faults.stats["delay_msg"] == 1

    def test_dup_is_deduplicated_by_sequence(self):
        world = self._pair(
            FaultPlan().dup_msg(2, layer="pml", tag=self.TAG, max_hits=1)
        )
        got = []

        def sender(mpi):
            comm = yield from mpi.mpi_init()
            yield from comm.send("once", 1, tag=self.TAG)

        def receiver(mpi):
            comm = yield from mpi.mpi_init()
            got.append((yield from comm.recv(source=0, tag=self.TAG)))

        _spawn(world, [sender(world.runtimes[0]), receiver(world.runtimes[1])])
        _run_bounded(world)
        assert got == ["once"]
        assert world.cluster.faults.stats["dup_msg"] == 1
        assert world.runtimes[1].endpoint.stats["dup_dropped"] >= 1

    def test_drop_without_retransmit_is_a_loud_deadlock(self):
        """ob1-over-sim has no retransmit: a dropped user packet leaves
        the receiver blocked forever, and the engine reports that as a
        DeadlockError instead of spinning — failures are never silent."""
        world = self._pair(
            FaultPlan().drop_msg(layer="pml", tag=self.TAG, max_hits=1)
        )

        def sender(mpi):
            comm = yield from mpi.mpi_init()
            yield from comm.send("lost", 1, tag=self.TAG)

        def receiver(mpi):
            comm = yield from mpi.mpi_init()
            yield from comm.recv(source=0, tag=self.TAG)

        _spawn(world, [sender(world.runtimes[0]), receiver(world.runtimes[1])])
        with pytest.raises(DeadlockError):
            world.run()
        assert world.cluster.faults.stats["drop_msg"] == 1


# ---------------------------------------------------------------------------
# kill_proc x a rank that already ran to completion
# ---------------------------------------------------------------------------
def test_kill_of_a_finished_rank_is_a_traced_no_op():
    """The fault manager lets go of a rank's MPI instance at its last
    release, but a late kill still finds the finished process: the trace
    names its span, nothing is thrown into it, and every survivor's
    library still pays (and counts) one notification."""
    from repro.simtime.trace import Tracer

    tracer = Tracer()
    world = make_world(spec=SimSpec(nprocs=4, machine=laptop(num_nodes=2),
                                    ppn=2, tracer=tracer))
    faults = world.cluster.faults

    def main(mpi):
        yield from mpi.mpi_init()
        yield from mpi.mpi_finalize()
        return "done"

    procs = _spawn(world, [main(rt) for rt in world.runtimes])
    assert all(p.obs_span for p in procs)

    def late():
        while not all(p.finished for p in procs):
            yield Sleep(50e-6)
        before = world.cluster.engine.events_executed
        faults.kill_rank(world.job, 3)
        yield Sleep(2 * world.cluster.machine.daemon_failure_detect)
        return world.cluster.engine.events_executed - before

    watcher = world.cluster.spawn(late(), name="late")
    _run_bounded(world)

    assert not faults._runtimes                     # every instance was released
    assert [(p.result, p.exception) for p in procs] == [("done", None)] * 4
    (kill,) = [i for i in tracer.instants if i.name == "faults.kill_proc"]
    assert kill.attrs == {"proc": str(world.job.proc(3)), "rank": 3,
                           "reason": "injected failure", "span": procs[3].obs_span}
    assert faults.stats["kill_proc"] == 1
    assert world.job.proc(3) in world.runtimes[0].failed_procs
    # Events the kill cost, unchanged from when every library ever
    # created was walked: one logical notification per launched rank (4)
    # plus the PMIx event broadcast and the watcher's own wake-up.
    assert watcher.result == 9
