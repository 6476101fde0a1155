"""Sessions rows of docs/conformance.md: Zhou et al.'s "true sessions"
rules, Rocco & Palermo's fault-awareness rule and the MPI-4.0 Sessions
calls the stack models, each checked against the clause named in its
docstring."""

import pytest

from repro.api import make_world, run_mpi
from repro.ompi.constants import SUM, THREAD_MULTIPLE
from repro.ompi.errors import (
    ERR_SESSION,
    Errhandler,
    MPIAbort,
    MPIErrProcFailed,
    MPIError,
)
from repro.ompi.info import Info
from repro.simtime.process import Sleep
from tests.conformance.adapter import spec


def test_session_works_without_mpi_init():
    """Zhou et al., "true sessions": an application uses MPI through a
    session alone, with no MPI_Init.  MPI-4.0 §11.3: the Sessions Model
    obtains a communicator from a process set with no call to MPI_INIT,
    and the World Model stays uninitialized."""
    def main(mpi):
        session = yield from mpi.session_init()
        group = yield from session.group_from_pset("mpi://world")
        comm = yield from mpi.comm_create_from_group(group, "no-init")
        total = yield from comm.allreduce(comm.rank + 1, op=SUM)
        world_model = (mpi.wpm_initialized, mpi.COMM_WORLD)
        comm.free()
        yield from session.finalize()
        return (total, world_model)

    assert run_mpi(spec(4), main) == [(10, (False, None))] * 4


@pytest.mark.parametrize("finalized_first", ["older", "newer"])
def test_finalizing_one_session_leaves_the_other_usable(finalized_first):
    """Zhou et al., "true sessions": two sessions have independent
    lifetimes, and finalizing one leaves the other usable.  MPI-4.0
    §11.3.1 (MPI_SESSION_FINALIZE) cleans up the state of the session
    it is given, and only that session."""
    def main(mpi):
        older = yield from mpi.session_init()
        newer = yield from mpi.session_init()
        done, kept = (older, newer) if finalized_first == "older" else (newer, older)
        yield from done.finalize()
        group = yield from kept.group_from_pset("mpi://world")
        comm = yield from mpi.comm_create_from_group(group, "survivor")
        total = yield from comm.allreduce(1, op=SUM)
        comm.free()
        yield from kept.finalize()
        return total

    assert run_mpi(spec(4), main) == [4] * 4


def test_pset_queries_need_no_communicator():
    """Zhou et al., "true sessions": process-set queries work before any
    communicator exists.  MPI-4.0 §11.3.2: MPI_SESSION_GET_NUM_PSETS,
    MPI_SESSION_GET_NTH_PSET and MPI_SESSION_GET_PSET_INFO take only the
    session; "mpi://WORLD" and "mpi://SELF" are always among the sets,
    and the info of a set holds its size under "mpi_size"."""
    def main(mpi):
        session = yield from mpi.session_init()
        n = yield from session.get_num_psets()
        names = []
        for i in range(n):
            names.append((yield from session.get_nth_pset(i)))
        sizes = []
        for name in ("mpi://world", "mpi://self"):
            info = yield from session.get_pset_info(name)
            sizes.append(info["mpi_size"])
        no_comm = mpi.live_comms == []
        yield from session.finalize()
        return ({"mpi://world", "mpi://self"} <= set(names), sizes, no_comm)

    assert run_mpi(spec(4), main) == [(True, [4, 1], True)] * 4


def test_get_info_returns_a_new_info_with_the_hints():
    """MPI-4.0 §11.3 (MPI_SESSION_GET_INFO): returns "a new info
    object" with the hints of the session, which the user frees; it
    holds the "thread_level" the session provides and the user's hints
    that were not ignored.  Changing or freeing the returned object does
    not change the session's hints."""
    def main(mpi):
        session = yield from mpi.session_init(
            thread_level=THREAD_MULTIPLE, info=Info({"app": "conformance"}))
        first = session.get_info()
        hints = (first.get("thread_level"), first.get("app"))
        first.set("app", "changed")
        first.free()
        second = session.get_info()
        again = (second.get("thread_level"), second.get("app"))
        fresh = second is not first
        second.free()
        yield from session.finalize()
        return (hints, again, fresh)

    hints = ("MPI_THREAD_MULTIPLE", "conformance")
    assert run_mpi(spec(2), main) == [(hints, hints, True)] * 2


def test_call_errhandler_runs_the_session_handler_and_returns():
    """MPI-4.0 §9.3.4 (MPI_SESSION_SET_ERRHANDLER,
    MPI_SESSION_CALL_ERRHANDLER): the call "invokes the error handler
    assigned to the session with the error code supplied"; if the
    handler returns, the process is not aborted and the call returns
    MPI_SUCCESS."""
    seen = []

    def main(mpi):
        session = yield from mpi.session_init()
        session.set_errhandler(Errhandler(lambda s, err: seen.append(
            (s is session, err.errclass))))
        session.call_errhandler(MPIErrProcFailed("reported by the program"))
        yield from session.finalize()
        return "returned"

    assert run_mpi(spec(2), main) == ["returned"] * 2
    assert seen == [(True, MPIErrProcFailed.errclass)] * 2


def test_errors_are_fatal_handler_aborts():
    """MPI-4.0 §9.3 (MPI_ERRORS_ARE_FATAL): "The handler, when called,
    causes the program to abort on all executing processes"; it is the
    handler a session gets when MPI_SESSION_INIT is given no other."""
    def main(mpi):
        session = yield from mpi.session_init()
        try:
            session.call_errhandler(MPIErrProcFailed("reported by the program"))
        except MPIAbort as abort:
            return abort.errclass
        return None

    assert run_mpi(spec(2), main) == [MPIErrProcFailed.errclass] * 2


def test_finalized_session_is_err_session():
    """MPI-4.0 §11.3.1 (MPI_SESSION_FINALIZE invalidates the session
    handle) and §9.4 (Table 9.1: MPI_ERR_SESSION, "Invalid session
    handle")."""
    def main(mpi):
        session = yield from mpi.session_init()
        yield from session.finalize()
        try:
            yield from session.group_from_pset("mpi://world")
        except MPIError as err:
            return err.errclass
        return None

    assert run_mpi(spec(2), main) == [ERR_SESSION] * 2


def test_fault_outside_the_pset_does_not_fail_create_from_group():
    """Rocco & Palermo, "Fault Awareness in the MPI 4.0 Session Model":
    a process that fails outside the process set a communicator is
    being built from does not fail MPI_COMM_CREATE_FROM_GROUP over that
    set.  Rank 7 (node 1) dies at t=0; node 0's ranks build a
    communicator over "mpi://shared" and reduce over it."""
    world = make_world(spec(8))

    def main(mpi):
        session = yield from mpi.session_init()
        if mpi.node != 0:
            yield Sleep(1.0)
            return None
        group = yield from session.group_from_pset("mpi://shared")
        comm = yield from mpi.comm_create_from_group(group, "node0")
        total = yield from comm.allreduce(comm.rank + 1, op=SUM)
        comm.free()
        yield from session.finalize()
        return total

    procs = world.spawn_ranks(main)
    cluster = world.cluster
    cluster.engine.call_at(0.0, lambda: cluster.faults.kill_rank(world.job, 7))
    world.run()
    assert 7 in {p.rank for p in cluster.faults.dead_procs}
    assert [p.result for p in procs[:4]] == [10] * 4
    assert all(p.exception is None for p in procs[:4])
