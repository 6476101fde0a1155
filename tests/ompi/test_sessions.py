"""MPI Sessions lifecycle: init/finalize cycles, psets, isolation,
pre-init object usage, and the coexistence of both process models."""

import pytest

from repro.ompi.constants import SUM, THREAD_MULTIPLE, THREAD_SINGLE
from repro.ompi.errors import MPIErrArg, MPIErrSession
from repro.ompi.session import BUILTIN_PSETS


class TestSessionBasics:
    def test_init_returns_distinct_handles(self, mpi_run):
        def main(mpi):
            s1 = yield from mpi.session_init()
            s2 = yield from mpi.session_init()
            distinct = s1.handle_id != s2.handle_id
            yield from s2.finalize()
            yield from s1.finalize()
            return distinct

        assert set(mpi_run(2, main, sessions=True)) == {True}

    def test_thread_level_recorded(self, mpi_run):
        def main(mpi):
            s = yield from mpi.session_init(THREAD_MULTIPLE)
            level = s.thread_level
            yield from s.finalize()
            return level

        assert set(mpi_run(1, main, sessions=True, nodes=1)) == {THREAD_MULTIPLE}

    def test_use_after_finalize_rejected(self, mpi_run):
        def main(mpi):
            s = yield from mpi.session_init()
            yield from s.finalize()
            try:
                yield from s.get_num_psets()
            except MPIErrSession:
                return "rejected"
            return "accepted"

        assert set(mpi_run(1, main, sessions=True, nodes=1)) == {"rejected"}

    def test_double_finalize_rejected(self, mpi_run):
        def main(mpi):
            s = yield from mpi.session_init()
            yield from s.finalize()
            try:
                yield from s.finalize()
            except MPIErrSession:
                return "rejected"
            return "accepted"

        assert set(mpi_run(1, main, sessions=True, nodes=1)) == {"rejected"}

    def test_finalize_with_live_comm_rejected(self, mpi_run):
        def main(mpi):
            s = yield from mpi.session_init()
            group = yield from s.group_from_pset("mpi://world")
            comm = yield from mpi.comm_create_from_group(group, "leak")
            try:
                yield from s.finalize()
            except MPIErrSession:
                result = "rejected"
            else:
                result = "accepted"
            comm.free()
            if result == "rejected":
                yield from s.finalize()
            return result

        assert set(mpi_run(2, main, sessions=True)) == {"rejected"}


class TestPsets:
    def test_builtin_psets_present(self, mpi_run):
        def main(mpi):
            s = yield from mpi.session_init()
            num = yield from s.get_num_psets()
            names = []
            for i in range(num):
                names.append((yield from s.get_nth_pset(i)))
            yield from s.finalize()
            return names

        results = mpi_run(2, main, sessions=True)
        for names in results:
            assert set(BUILTIN_PSETS) <= set(names)

    def test_world_pset_info(self, mpi_run):
        def main(mpi):
            s = yield from mpi.session_init()
            info = yield from s.get_pset_info("mpi://world")
            yield from s.finalize()
            return info.get("mpi_size")

        assert set(mpi_run(4, main, sessions=True)) == {"4"}

    def test_self_pset(self, mpi_run):
        def main(mpi):
            s = yield from mpi.session_init()
            group = yield from s.group_from_pset("mpi://self")
            ok = group.size == 1 and group.proc(0) == mpi.proc
            comm = yield from mpi.comm_create_from_group(group, "self")
            total = yield from comm.allreduce(41, op=SUM)
            comm.free()
            yield from s.finalize()
            return ok and total == 41

        assert set(mpi_run(3, main, sessions=True)) == {True}

    def test_shared_pset_is_node_local(self, mpi_run):
        def main(mpi):
            s = yield from mpi.session_init()
            group = yield from s.group_from_pset("mpi://shared")
            members = group.members()
            yield from s.finalize()
            return sorted(p.rank for p in members)

        # 4 ranks over 2 nodes at ppn=2.
        results = mpi_run(4, main, sessions=True, nodes=2, ppn=2)
        assert results == [[0, 1], [0, 1], [2, 3], [2, 3]]

    def test_runtime_defined_pset(self, mpi_run):
        def main(mpi):
            s = yield from mpi.session_init()
            group = yield from s.group_from_pset("app/custom")
            yield from s.finalize()
            return [p.rank for p in group.members()]

        results = mpi_run(4, main, sessions=True, psets={"app/custom": [3, 1]})
        assert set(tuple(r) for r in results) == {(3, 1)}

    def test_unknown_pset_raises(self, mpi_run):
        def main(mpi):
            s = yield from mpi.session_init()
            try:
                yield from s.group_from_pset("mpi://nonsense")
            except MPIErrArg:
                result = "rejected"
            else:
                result = "accepted"
            yield from s.finalize()
            return result

        assert set(mpi_run(1, main, sessions=True, nodes=1)) == {"rejected"}

    def test_nth_pset_out_of_range(self, mpi_run):
        def main(mpi):
            s = yield from mpi.session_init()
            num = yield from s.get_num_psets()
            try:
                yield from s.get_nth_pset(num)
            except MPIErrArg:
                result = "rejected"
            else:
                result = "accepted"
            yield from s.finalize()
            return result

        assert set(mpi_run(1, main, sessions=True, nodes=1)) == {"rejected"}

    def test_group_carries_session(self, mpi_run):
        def main(mpi):
            s = yield from mpi.session_init()
            group = yield from s.group_from_pset("mpi://world")
            same = group.session is s
            yield from s.finalize()
            return same

        assert set(mpi_run(2, main, sessions=True)) == {True}


class TestReinitCycles:
    def test_full_cycles_reinitialize_subsystems(self, mpi_run):
        def main(mpi):
            epochs = []
            for _cycle in range(3):
                s = yield from mpi.session_init()
                epochs.append(mpi.instance_epochs)
                yield from s.finalize()
                assert mpi.instance_refcount == 0
                assert not mpi.instance_up
            return epochs

        results = mpi_run(2, main, sessions=True)
        assert all(r == [1, 2, 3] for r in results)

    def test_nested_sessions_share_one_epoch(self, mpi_run):
        def main(mpi):
            s1 = yield from mpi.session_init()
            s2 = yield from mpi.session_init()
            s3 = yield from mpi.session_init()
            epoch = mpi.instance_epochs
            yield from s2.finalize()
            yield from s1.finalize()
            # Subsystems stay alive while any session exists.
            alive = mpi.instance_up
            yield from s3.finalize()
            gone = not mpi.instance_up
            return (epoch, alive, gone)

        assert set(mpi_run(2, main, sessions=True)) == {(1, True, True)}

    def test_cleanup_runs_all_subsystems(self, mpi_run):
        def main(mpi):
            s = yield from mpi.session_init()
            up = (mpi.instance_up, mpi.endpoint is not None,
                  mpi.proc in mpi.fabric._endpoints)
            yield from s.finalize()
            down = (mpi.instance_up, mpi.endpoint is not None,
                    mpi.proc in mpi.fabric._endpoints)
            return up, down

        results = mpi_run(1, main, sessions=True, nodes=1)
        up, down = results[0]
        assert up == (True, True, True)
        # Truly uninitialized: the endpoint is gone and the fabric no
        # longer delivers to this rank.
        assert down == (False, False, False)

    def test_communication_works_after_reinit(self, mpi_run):
        def main(mpi):
            totals = []
            for cycle in range(2):
                s = yield from mpi.session_init()
                group = yield from s.group_from_pset("mpi://world")
                comm = yield from mpi.comm_create_from_group(group, f"c{cycle}")
                totals.append((yield from comm.allreduce(1, op=SUM)))
                comm.free()
                yield from s.finalize()
            return totals

        assert set(tuple(r) for r in mpi_run(4, main, sessions=True)) == {(4, 4)}

    def test_first_session_pays_handle_init(self, mpi_run):
        """Later sessions in the same epoch are cheaper than the first."""

        def main(mpi):
            t0 = mpi.engine.now
            s1 = yield from mpi.session_init()
            t1 = mpi.engine.now
            s2 = yield from mpi.session_init()
            t2 = mpi.engine.now
            yield from s2.finalize()
            yield from s1.finalize()
            return (t1 - t0, t2 - t1)

        results = mpi_run(1, main, sessions=True, nodes=1)
        first, second = results[0]
        assert second < first / 2


class TestWorldProcessModel:
    def test_mpi_init_twice_rejected(self, mpi_run):
        def main(mpi):
            yield from mpi.mpi_init()
            try:
                yield from mpi.mpi_init()
            except MPIErrArg:
                result = "rejected"
            else:
                result = "accepted"
            yield from mpi.mpi_finalize()
            return result

        assert set(mpi_run(2, main)) == {"rejected"}

    def test_no_reinit_after_finalize(self, mpi_run):
        """The MPI-3 restriction Sessions remove (§II-A) holds for the
        legacy path."""

        def main(mpi):
            yield from mpi.mpi_init()
            yield from mpi.mpi_finalize()
            try:
                yield from mpi.mpi_init()
            except MPIErrArg:
                return "rejected"
            return "accepted"

        assert set(mpi_run(2, main)) == {"rejected"}

    def test_finalize_without_init_rejected(self, mpi_run):
        def main(mpi):
            try:
                yield from mpi.mpi_finalize()
            except MPIErrArg:
                return "rejected"
            return "accepted"
            yield  # pragma: no cover

        assert set(mpi_run(1, main, nodes=1)) == {"rejected"}

    def test_comm_self(self, mpi_run):
        def main(mpi):
            yield from mpi.mpi_init()
            out = (mpi.COMM_SELF.size, mpi.COMM_SELF.rank)
            total = yield from mpi.COMM_SELF.allreduce(5, op=SUM)
            yield from mpi.mpi_finalize()
            return (*out, total)

        assert set(mpi_run(3, main)) == {(1, 0, 5)}

    def test_internal_session_backs_wpm(self, mpi_run):
        """The restructured MPI_Init wraps an internal session (§III-B5)."""

        def main(mpi):
            yield from mpi.mpi_init()
            internal = mpi.world_session is not None and mpi.world_session.internal
            cannot_finalize_directly = False
            try:
                yield from mpi.world_session.finalize()
            except MPIErrSession:
                cannot_finalize_directly = True
            yield from mpi.mpi_finalize()
            return (internal, cannot_finalize_directly)

        assert set(mpi_run(2, main)) == {(True, True)}


class TestCoexistence:
    def test_wpm_and_sessions_together(self, mpi_run):
        """Paper §III-B5: the Sessions Process Model works alongside the
        World Process Model (as in the HPCC and 2MESH experiments)."""

        def main(mpi):
            world = yield from mpi.mpi_init(THREAD_SINGLE)
            s = yield from mpi.session_init(THREAD_MULTIPLE)
            group = yield from s.group_from_pset("mpi://world")
            comm = yield from mpi.comm_create_from_group(group, "coexist")
            a = yield from world.allreduce(1, op=SUM)
            b = yield from comm.allreduce(2, op=SUM)
            comm.free()
            yield from s.finalize()
            # World communication still works after the session is gone.
            c = yield from world.allreduce(3, op=SUM)
            yield from mpi.mpi_finalize()
            return (a, b, c)

        results = mpi_run(4, main, sessions=True)
        assert set(results) == {(4, 8, 12)}

    def test_session_outlives_wpm_subsystems(self, mpi_run):
        def main(mpi):
            yield from mpi.mpi_init()
            s = yield from mpi.session_init()
            yield from mpi.mpi_finalize()
            # The session keeps the instance alive after MPI_Finalize.
            alive = mpi.instance_up
            group = yield from s.group_from_pset("mpi://world")
            comm = yield from mpi.comm_create_from_group(group, "late")
            total = yield from comm.allreduce(1, op=SUM)
            comm.free()
            yield from s.finalize()
            return (alive, total)

        assert set(mpi_run(2, main, sessions=True)) == {(True, 2)}


class TestPreInitObjects:
    def test_info_and_errhandler_before_init(self, mpi_run):
        """Paper §III-B5: Info and Errhandler calls are legal before any
        initialization; the session keeps the hints and the handler."""
        from repro.ompi.errors import Errhandler
        from repro.ompi.info import Info

        def main(mpi):
            info = Info({"mpi_thread_support": "multiple"})
            handler = Errhandler(name="early")
            s = yield from mpi.session_init(info=info, errhandler=handler)
            ok = (s.get_info().get("mpi_thread_support") == "multiple"
                  and s.errhandler is handler)
            yield from s.finalize()
            return ok

        assert mpi_run(1, main, sessions=True, nodes=1) == [True]
