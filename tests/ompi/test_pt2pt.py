"""Point-to-point semantics over the ob1 PML, both init models."""

import pytest

from repro.ompi.constants import ANY_SOURCE, ANY_TAG
from repro.ompi.errors import MPIErrRank, MPIErrTag
from repro.ompi.request import testall as mpi_testall
from repro.ompi.request import waitall, waitany
from repro.ompi.status import Status
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
                yield from waitall([small, large])
                return [(r.get_status().source, r.get_status().tag,
                         r.get_status().count) for r in (small, large)]
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

    def test_waitany_returns_first(self, mpi_run, program):
        def body(mpi, comm):
            from repro.simtime.process import Sleep

            if comm.rank == 0:
                yield Sleep(100e-6)
                yield from comm.send("slow", 1, tag=1)
                return None
            if comm.rank == 2:
                yield from comm.send("fast", 1, tag=2)
                return None
            reqs = [comm.irecv(source=0, tag=1), comm.irecv(source=2, tag=2)]
            idx, _status = yield from waitany(reqs)
            got_first = reqs[idx].payload
            yield from reqs[0].wait()
            return (idx, got_first)

        results = mpi_run(3, program(body))
        assert results[1] == (1, "fast")

    def test_test_and_testall(self, mpi_run, program):
        def body(mpi, comm):
            if comm.rank == 0:
                yield from comm.send(1, 1, tag=1)
                return None
            req = comm.irecv(source=0, tag=1)
            # Spin (simulated) until test succeeds.
            from repro.simtime.process import Sleep

            polls = 0
            while True:
                done, status = req.test()
                if done:
                    break
                polls += 1
                yield Sleep(1e-6)
            all_done, statuses = mpi_testall([req])
            return (req.payload, all_done, len(statuses))

        results = mpi_run(2, program(body))
        assert results[1] == (1, True, 1)

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
