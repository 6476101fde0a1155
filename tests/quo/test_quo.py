"""QUO runtime library tests: topology, binding, quiescence mechanisms."""

import pytest

from repro.api import SimSpec, run_mpi
from repro.machine.presets import laptop
from repro.ompi.config import MpiConfig
from repro.quo.context import QUO_OBJ_CORE, QUO_OBJ_SOCKET, QuoContext, QuoError


def run(nprocs, main, sessions=False, nodes=2, ppn=None):
    config = MpiConfig.sessions_prototype() if sessions else MpiConfig.baseline()
    return run_mpi(SimSpec(nprocs=nprocs, machine=laptop(num_nodes=nodes),
                           ppn=ppn or nprocs // nodes, config=config), main)


class TestTopology:
    def test_qids_and_node_counts(self):
        def main(mpi):
            yield from mpi.mpi_init()
            quo = yield from QuoContext.create(mpi)
            out = (quo.qid(), quo.nqids())
            yield from quo.free()
            yield from mpi.mpi_finalize()
            return out

        results = run(4, main, nodes=2, ppn=2)
        assert results == [(0, 2), (1, 2), (0, 2), (1, 2)]

    def test_nobjs(self):
        def main(mpi):
            yield from mpi.mpi_init()
            quo = yield from QuoContext.create(mpi)
            cores = quo.nobjs(QUO_OBJ_CORE)
            yield from quo.free()
            yield from mpi.mpi_finalize()
            return cores

        assert set(run(2, main, nodes=1, ppn=2)) == {laptop().cores_per_node}

    def test_auto_distrib_picks_leaders(self):
        def main(mpi):
            yield from mpi.mpi_init()
            quo = yield from QuoContext.create(mpi)
            leader = quo.auto_distrib(1)
            yield from quo.free()
            yield from mpi.mpi_finalize()
            return leader

        results = run(4, main, nodes=2, ppn=2)
        assert results == [True, False, True, False]


class TestBinding:
    def test_push_pop(self):
        def main(mpi):
            yield from mpi.mpi_init()
            quo = yield from QuoContext.create(mpi)
            quo.bind_push(QUO_OBJ_SOCKET)
            bound = quo.bound
            popped = quo.bind_pop()
            empty = quo.bound is None
            yield from quo.free()
            yield from mpi.mpi_finalize()
            return (bound, popped, empty)

        assert set(run(2, main, nodes=1, ppn=2)) == {(QUO_OBJ_SOCKET, QUO_OBJ_SOCKET, True)}

    def test_pop_empty_raises(self):
        def main(mpi):
            yield from mpi.mpi_init()
            quo = yield from QuoContext.create(mpi)
            try:
                quo.bind_pop()
            except QuoError:
                result = "rejected"
            else:
                result = "accepted"
            yield from quo.free()
            yield from mpi.mpi_finalize()
            return result

        assert set(run(2, main, nodes=1, ppn=2)) == {"rejected"}


class TestQuiescence:
    @pytest.mark.parametrize("sessions", [False, True])
    def test_barrier_holds_until_all_arrive(self, sessions):
        from repro.simtime.process import Sleep

        def main(mpi):
            yield from mpi.mpi_init()
            quo = yield from QuoContext.create(mpi, use_sessions=sessions)
            yield Sleep(mpi.rank_in_job * 100e-6)
            arrived = mpi.engine.now
            yield from quo.quiesce()
            released = mpi.engine.now
            yield from quo.free()
            yield from mpi.mpi_finalize()
            return (arrived, released)

        results = run(4, main, sessions=sessions, nodes=1, ppn=4)
        last = max(a for a, _ in results)
        assert all(rel >= last for _, rel in results)

    def test_sessions_barrier_requires_sessions(self):
        def main(mpi):
            yield from mpi.mpi_init()
            quo = yield from QuoContext.create(mpi, use_sessions=False)
            try:
                yield from quo.sessions_barrier()
            except QuoError:
                result = "rejected"
            else:
                result = "accepted"
            yield from quo.free()
            yield from mpi.mpi_finalize()
            return result

        assert set(run(2, main, nodes=1, ppn=2)) == {"rejected"}

    def test_sessions_barrier_release_lag_bounded(self):
        """The nanosleep poll adds at most a few quanta of release lag
        after the LAST rank arrives."""
        from repro.simtime.process import Sleep

        def main(mpi):
            yield from mpi.mpi_init()
            quo = yield from QuoContext.create(mpi, use_sessions=True)
            if mpi.rank_in_job != 0:
                yield Sleep(500e-6)  # rank 0 parks early and polls
            arrived = mpi.engine.now
            yield from quo.quiesce()
            released = mpi.engine.now
            yield from quo.free()
            yield from mpi.mpi_finalize()
            return (arrived, released)

        results = run(2, main, sessions=True, nodes=1, ppn=2)
        quantum = laptop().nanosleep_quantum
        last_arrival = max(a for a, _ in results)
        for _arrived, released in results:
            assert released - last_arrival < 5 * quantum + 50e-6

    def test_sessions_barrier_raises_when_a_peer_dies_in_it(self):
        """The Ibarrier + nanosleep poll (paper §IV-E) must not walk out
        of a barrier a peer died in: the failed request raises from the
        ``test()`` that observes it (MPI-4.0 §3.7.3)."""
        from repro.api import make_world
        from repro.ompi.errors import MPIErrProcFailed
        from repro.simtime.process import Sleep

        world = make_world(spec=SimSpec(
            nprocs=3, machine=laptop(num_nodes=1), ppn=3,
            config=MpiConfig.sessions_prototype()))
        parked = []

        def main(mpi):
            yield from mpi.mpi_init()
            quo = yield from QuoContext.create(mpi, use_sessions=True)
            parked.append(mpi.rank_in_job)
            if mpi.rank_in_job == 2:
                yield Sleep(1e9)            # never arrives; killed below
            try:
                yield from quo.sessions_barrier()
            except MPIErrProcFailed:
                return "raised"
            return "released"

        procs = world.spawn_ranks(main)
        for proc in procs:
            proc.defuse()

        def chaos():
            while len(parked) < 3:
                yield Sleep(50e-6)
            yield Sleep(300e-6)             # ranks 0 and 1 are polling
            world.cluster.fail_process(world.job, 2, procs[2])

        world.cluster.spawn(chaos(), "chaos")
        world.run()
        assert [procs[r].result for r in (0, 1)] == ["raised", "raised"]

    def test_quiesce_is_node_local(self):
        """Quiescence on one node never waits for the other node."""
        from repro.simtime.process import Sleep

        def main(mpi):
            yield from mpi.mpi_init()
            quo = yield from QuoContext.create(mpi)
            if mpi.node == 1:
                yield Sleep(10e-3)  # node 1 arrives much later
            yield from quo.quiesce()
            released = mpi.engine.now
            yield from quo.free()
            yield from mpi.mpi_finalize()
            return released

        results = run(4, main, nodes=2, ppn=2)
        # Node 0's pair released long before node 1's.
        assert max(results[:2]) < min(results[2:])

    def test_context_use_after_free(self):
        def main(mpi):
            yield from mpi.mpi_init()
            quo = yield from QuoContext.create(mpi)
            yield from quo.free()
            try:
                quo.qid()
            except QuoError:
                result = "rejected"
            else:
                result = "accepted"
            yield from mpi.mpi_finalize()
            return result

        assert set(run(2, main, nodes=1, ppn=2)) == {"rejected"}

    def test_sessions_integration_isolated_from_app(self):
        """QUO's private session leaves the app's WPM state untouched
        (the paper's 2MESH integration pattern)."""

        def main(mpi):
            from repro.ompi.constants import SUM

            world = yield from mpi.mpi_init()
            quo = yield from QuoContext.create(mpi, use_sessions=True)
            assert quo.session is not None and not quo.session.internal
            total = yield from world.allreduce(1, op=SUM)  # app traffic
            yield from quo.quiesce()
            yield from quo.free()
            yield from mpi.mpi_finalize()
            return total

        assert set(run(4, main, sessions=True, nodes=1, ppn=4)) == {4}
