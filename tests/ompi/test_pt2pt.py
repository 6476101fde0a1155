"""Point-to-point semantics over the ob1 PML, both init models."""

import pytest

from repro.api import SimSpec, make_world
from repro.machine.presets import laptop
from repro.ompi.constants import ANY_SOURCE, ANY_TAG
from repro.ompi.errors import (
    ERRORS_RETURN,
    MPIErrProcFailed,
    MPIErrRank,
    MPIErrRequest,
    MPIErrTag,
)
from repro.ompi.request import Request, waitall
from repro.ompi.status import Status
from repro.simtime.process import Sleep
from tests.faults.conftest import spawn_ranks
from tests.ompi.conftest import sessions_program, world_program


@pytest.fixture(params=["world", "sessions"])
def program(request):
    """Run each test under both initialization models."""
    wrap = world_program if request.param == "world" else sessions_program
    return wrap


class TestBlocking:
    def test_send_recv_payload(self, mpi_run, program):
        def body(mpi, comm):
            if comm.rank == 0:
                yield from comm.send({"x": [1, 2, 3]}, 1, tag=7)
                return None
            return (yield from comm.recv(0, tag=7))

        results = mpi_run(2, program(body))
        assert results[1] == {"x": [1, 2, 3]}

    def test_status_fields(self, mpi_run, program):
        def body(mpi, comm):
            if comm.rank == 0:
                yield from comm.send(b"abcdef", 1, tag=9)
                return None
            status = Status()
            yield from comm.recv(ANY_SOURCE, ANY_TAG, status=status)
            return (status.source, status.tag, status.count)

        results = mpi_run(2, program(body))
        assert results[1] == (0, 9, 6)

    def test_send_status_reports_sender_rank_eager_and_rendezvous(self, mpi_run, program):
        """A completed send request reports the sender's own rank whether
        it completed at injection (eager) or after CTS (rendezvous)."""
        def body(mpi, comm):
            if comm.rank == 1:
                limit = mpi.machine.eager_limit
                small = yield from comm.isend("s", 0, tag=1, nbytes=limit)
                large = yield from comm.isend("L", 0, tag=2, nbytes=limit + 1)
                statuses = yield from waitall([small, large])
                return [(st.source, st.tag, st.count) for st in statuses]
            first = yield from comm.recv(1, tag=1)
            second = yield from comm.recv(1, tag=2)
            return first + second

        results = mpi_run(2, program(body))
        limit = results[1][0][2]
        assert results[1] == [(1, 1, limit), (1, 2, limit + 1)]
        assert results[0] == "sL"

    def test_messages_not_overtaking_same_tag(self, mpi_run, program):
        def body(mpi, comm):
            if comm.rank == 0:
                for i in range(10):
                    yield from comm.send(i, 1, tag=1)
                return None
            got = []
            for _ in range(10):
                got.append((yield from comm.recv(0, tag=1)))
            return got

        results = mpi_run(2, program(body))
        assert results[1] == list(range(10))

    def test_tag_selectivity(self, mpi_run, program):
        def body(mpi, comm):
            if comm.rank == 0:
                yield from comm.send("low", 1, tag=1)
                yield from comm.send("high", 1, tag=2)
                return None
            high = yield from comm.recv(0, tag=2)
            low = yield from comm.recv(0, tag=1)
            return (high, low)

        results = mpi_run(2, program(body))
        assert results[1] == ("high", "low")

    def test_sendrecv_exchange(self, mpi_run, program):
        def body(mpi, comm):
            peer = 1 - comm.rank
            got = yield from comm.sendrecv(f"from{comm.rank}", peer, peer,
                                           sendtag=3, recvtag=3)
            return got

        results = mpi_run(2, program(body))
        assert results == ["from1", "from0"]


class TestNonblocking:
    def test_isend_irecv_wait(self, mpi_run, program):
        def body(mpi, comm):
            if comm.rank == 0:
                req = yield from comm.isend(42, 1, tag=1)
                status = yield from req.wait()
                return status.count
            req = comm.irecv(source=0, tag=1)
            yield from req.wait()
            return req.payload

        results = mpi_run(2, program(body))
        assert results[1] == 42

    def test_waitall(self, mpi_run, program):
        def body(mpi, comm):
            if comm.rank == 0:
                reqs = []
                for i in range(5):
                    reqs.append((yield from comm.isend(i, 1, tag=i)))
                yield from waitall(reqs)
                return None
            reqs = [comm.irecv(source=0, tag=i) for i in range(5)]
            yield from waitall(reqs)
            return [r.payload for r in reqs]

        results = mpi_run(2, program(body))
        assert results[1] == [0, 1, 2, 3, 4]

    def test_iprobe(self, mpi_run, program):
        def body(mpi, comm):
            from repro.simtime.process import Sleep

            if comm.rank == 0:
                yield from comm.send(b"xyz", 1, tag=8)
                return None
            while comm.iprobe(source=0, tag=8) is None:
                yield Sleep(1e-6)
            status = comm.iprobe(source=0, tag=8)
            payload = yield from comm.recv(0, tag=8)
            return (status.count, payload)

        results = mpi_run(2, program(body))
        assert results[1] == (3, b"xyz")


class TestValidation:
    def test_negative_user_tag_rejected(self, mpi_run, program):
        def body(mpi, comm):
            from repro.ompi.errors import MPIErrTag

            try:
                yield from comm.send(None, 0, tag=-1)
            except MPIErrTag:
                return "rejected"
            return "accepted"

        assert mpi_run(1, program(body), nodes=1) == ["rejected"]

    def test_peer_out_of_range(self, mpi_run, program):
        def body(mpi, comm):
            try:
                yield from comm.send(None, 99, tag=0)
            except MPIErrRank:
                return "rejected"
            return "accepted"

        assert mpi_run(2, program(body)) == ["rejected", "rejected"]


class TestRendezvous:
    def test_large_message_roundtrip(self, mpi_run, program):
        """Above the eager limit the rendezvous path carries the data."""
        import numpy as np

        def body(mpi, comm):
            assert mpi.machine.eager_limit < 1 << 20
            if comm.rank == 0:
                data = np.arange(1 << 18, dtype=np.float64)  # 2 MB
                yield from comm.send(data, 1, tag=1)
                return None
            got = yield from comm.recv(0, tag=1)
            return float(got.sum())

        results = mpi_run(2, program(body))
        assert results[1] == float(sum(range(1 << 18)))

    def test_rendezvous_slower_than_eager_per_byte(self, mpi_run, program):
        """An above-limit message pays the RTS/CTS round trip."""

        def body(mpi, comm):
            t = mpi.engine
            if comm.rank == 0:
                # Warm up: complete discovery and the exCID handshake so
                # the measured RTTs isolate the eager/rendezvous paths.
                yield from comm.send(None, 1, tag=1, nbytes=8)
                yield from comm.recv(1, tag=2)
                t0 = t.now
                yield from comm.send(None, 1, tag=1, nbytes=mpi.machine.eager_limit)
                yield from comm.recv(1, tag=2)
                eager_rtt = t.now - t0
                t0 = t.now
                yield from comm.send(None, 1, tag=1, nbytes=mpi.machine.eager_limit + 1)
                yield from comm.recv(1, tag=2)
                rndv_rtt = t.now - t0
                return (eager_rtt, rndv_rtt)
            for _ in range(3):
                yield from comm.recv(0, tag=1)
                yield from comm.send(None, 0, tag=2, nbytes=0)
            return None

        results = mpi_run(2, program(body))
        eager_rtt, rndv_rtt = results[0]
        assert rndv_rtt > eager_rtt


class TestRequestRecord:
    """A Request is its own completion event and its own posted receive;
    the MPI-facing rules did not move with the merge."""

    def test_failed_request_raises_from_test(self):
        """MPI-4.0 §3.7.3: the call that observes a failed request reports
        the failure — a poll must not read it as a success."""
        failed = Request("recv")
        failed.fail(MPIErrProcFailed("peer died"))
        with pytest.raises(MPIErrProcFailed):
            failed.test()
        assert failed.completed and failed.value is None

    def test_completed_twice_raises(self):
        req = Request("send")
        req.complete(Status(0, 1, 2))
        with pytest.raises(MPIErrRequest):
            req.complete(Status(0, 1, 2))
        assert req.test() == (True, req.value)

    def test_freed_request_raises_from_wait_test_and_waitall(self):
        req = Request("recv")
        req.free()
        with pytest.raises(MPIErrRequest):
            next(req.wait())
        with pytest.raises(MPIErrRequest):
            req.test()
        with pytest.raises(MPIErrRequest):
            next(waitall([req]))

    def test_a_receive_request_names_what_it_matches(self, mpi_run, program):
        def body(mpi, comm):
            if comm.rank == 1:
                yield from comm.send("a", 0, tag=4)
                yield from comm.send("b", 0, tag=5)
                return None
            exact, wild = comm.irecv(source=1, tag=4), comm.irecv()
            yield from waitall([exact, wild])
            return ((exact.src, exact.tag, exact.payload),
                    (wild.src, wild.tag, wild.payload))

        results = mpi_run(2, program(body))
        assert results[0] == ((1, 4, "a"), (ANY_SOURCE, ANY_TAG, "b"))


class TestSendPeerCache:
    """``comm._send_peers`` remembers the peer record per destination
    rank; range and liveness checks must not be remembered with it."""

    def test_bad_rank_raises_before_and_after_a_valid_send(self, mpi_run, program):
        def body(mpi, comm):
            def rejected():
                # The collectives' internal send: no user-level range
                # check in front of the endpoint's.
                out = []
                for dest in (-1, comm.size, 99):
                    try:
                        yield from comm._send_internal(None, dest, 3, nbytes=0)
                    except MPIErrRank:
                        out.append(True)
                    else:
                        out.append(False)
                return out

            if comm.rank != 0:
                yield from comm.recv(0, tag=3)
                return None
            idle = comm._send_peers
            before = yield from rejected()
            yield from comm.send(None, 1, tag=3, nbytes=0)
            yield from comm.send(None, 2, tag=3, nbytes=0)
            # A list-indexed cache would answer -1 with rank 2's record.
            after = yield from rejected()
            return idle, before, after, sorted(comm._send_peers)

        results = mpi_run(3, program(body), nodes=1, ppn=3)
        assert results[0] == (None, [True] * 3, [True] * 3, [1, 2])

    def test_free_drops_the_cache(self, mpi_run):
        def main(mpi):
            world = yield from mpi.mpi_init()
            comm = yield from world.dup()
            peer = 1 - comm.rank
            yield from comm.sendrecv(None, peer, peer, nbytes=0)
            cached = sorted(comm._send_peers)
            comm.free()
            freed = comm._send_peers
            yield from mpi.mpi_finalize()
            return cached, freed

        assert mpi_run(2, main) == [([1], None), ([0], None)]

    def test_send_to_a_peer_that_died_after_first_contact(self):
        world = make_world(spec=SimSpec(nprocs=2, machine=laptop(num_nodes=1), ppn=2))
        cluster, job = world.cluster, world.job
        contacted = []

        def sender(mpi):
            comm = yield from mpi.mpi_init()
            comm.set_errhandler(ERRORS_RETURN)
            yield from comm.send("first", 1, tag=1)
            contacted.append(sorted(comm._send_peers))
            try:
                while True:     # the kill lands between two of these
                    yield from comm.isend("again", 1, tag=2)
            except MPIErrProcFailed as err:
                return str(err), mpi.engine.now

        def victim(mpi):
            comm = yield from mpi.mpi_init()
            yield from comm.recv(0, tag=1)
            yield Sleep(1e9)

        procs = spawn_ranks(cluster, job, [sender(world.runtimes[0]),
                                           victim(world.runtimes[1])])
        killed_at = []

        def watcher():
            while not contacted and not procs[0].finished:
                yield Sleep(1e-6)
            cluster.faults.kill_rank(job, 1)
            killed_at.append(cluster.now)

        cluster.spawn(watcher(), name="watcher")
        world.run()
        assert contacted == [[1]]
        message, when = procs[0].result
        # The per-send liveness check, not the later damage notice.
        assert "send to failed peer rank 1" in message
        assert when - killed_at[0] < 5e-6


class TestDeepRendezvousWindow:
    """``Ob1Endpoint._pending`` tracks rendezvous requests so a peer's
    death can fail them; it is pruned as the window deepens."""

    WINDOW = 200

    def _world(self):
        return make_world(spec=SimSpec(nprocs=2, machine=laptop(num_nodes=2), ppn=1))

    def test_a_200_deep_cross_node_window_completes(self):
        world = self._world()
        window = self.WINDOW
        tracked = []

        def main(mpi):
            comm = yield from mpi.mpi_init()
            size = mpi.machine.eager_limit + 1
            if comm.rank == 0:
                reqs = []
                for i in range(window):
                    reqs.append((yield from comm.isend(i, 1, tag=i, nbytes=size)))
            else:
                reqs = [comm.irecv(0, tag=i) for i in range(window)]
            statuses = yield from waitall(reqs)
            # Twice over: the second window finds the first one's
            # entries completed and prunes them.
            for i in range(window):
                if comm.rank == 0:
                    yield from comm.send(i, 1, tag=i, nbytes=size)
                else:
                    yield from comm.recv(0, tag=i)
            tracked.append(len(mpi.endpoint._pending))
            yield from mpi.mpi_finalize()
            return [r.payload for r in reqs], [s.count for s in statuses]

        procs = world.spawn_ranks(main)
        world.run()
        size = world.cluster.machine.eager_limit + 1
        assert procs[0].result[1] == procs[1].result[1] == [size] * window
        assert procs[1].result[0] == list(range(window))
        # 400 requests went through each end; completed ones do not pile up.
        assert max(tracked) < 2 * window, tracked

    def test_a_kill_mid_window_fails_the_incomplete_requests_and_only_those(self):
        world = self._world()
        cluster, job = world.cluster, world.job
        window = self.WINDOW
        sends = []

        def sender(mpi):
            comm = yield from mpi.mpi_init()
            size = mpi.machine.eager_limit + 1
            for i in range(window):
                sends.append((yield from comm.isend(i, 1, tag=i, nbytes=size)))
            outcome = []
            for req in sends:
                try:
                    yield from req.wait()
                    outcome.append("sent")
                except MPIErrProcFailed:
                    outcome.append("failed")
            return outcome

        def receiver(mpi):
            comm = yield from mpi.mpi_init()
            yield from waitall([comm.irecv(0, tag=i) for i in range(window)])

        procs = spawn_ranks(cluster, job, [sender(world.runtimes[0]),
                                           receiver(world.runtimes[1])])
        done_at_kill = []

        def watcher():
            while (sum(r.completed for r in sends) < window // 4
                   and not procs[0].finished):
                yield Sleep(1e-6)
            done_at_kill.extend(r.completed for r in sends)
            cluster.faults.kill_rank(job, 1)

        cluster.spawn(watcher(), name="watcher")
        world.run()          # terminates: nothing waits on the dead peer
        outcome = procs[0].result
        assert len(outcome) == window
        sent = outcome.count("sent")
        assert window // 4 <= sent < window
        # Completion is in order, so the sends finished before the kill
        # are a prefix; they stay completed, everything after them fails.
        assert outcome == ["sent"] * sent + ["failed"] * (window - sent)
        assert all(r.exception is None for r in sends[:sent])
        assert sent >= sum(done_at_kill)
