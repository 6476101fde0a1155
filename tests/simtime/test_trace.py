"""Tracer unit tests + white-box protocol traces through the stack."""

from repro.api import SimSpec, make_world
from repro.machine.presets import laptop
from repro.ompi.config import MpiConfig
from repro.simtime.trace import NullTracer, Tracer


def named(tracer, name):
    """The instants called ``name``, in recording order."""
    return [i for i in tracer.instants if i.name == name]


class TestTracer:
    def test_event_records_instants_by_track(self):
        tr = Tracer()
        tr.event(1.0, "events:pml", "pml.send", dst="x")
        tr.event(2.0, "events:pml", "pml.recv")
        tr.event(3.0, "events:cid", "cid.alloc")
        assert [i.name for i in tr.instants
                if i.track == "events:pml"] == ["pml.send", "pml.recv"]
        (send,) = named(tr, "pml.send")
        assert send.time == 1.0 and send.attrs == {"dst": "x"}
        assert named(tr, "nope") == []

    def test_disable_and_reenable(self):
        tr = Tracer()
        tr.enabled = False
        tr.event(1.0, "t", "x.y")
        assert not tr.instants
        tr.enabled = True
        tr.event(1.0, "t", "x.y")
        assert len(tr.instants) == 1

    def test_null_tracer_drops(self):
        tr = NullTracer()
        tr.event(1.0, "t", "x.y")
        assert tr.instants == []

    def test_null_tracer_drops_even_when_reenabled(self):
        tr = NullTracer()
        tr.enabled = True
        tr.event(1.0, "t", "x.y")
        assert tr.instants == []


class TestFaultTraces:
    def test_fault_events_land_in_faults_category(self):
        from repro.faults import FaultPlan
        from tests.faults.conftest import boot, run_bounded, spawn_ranks

        tracer = Tracer()
        cluster, job = boot(nodes=2, ranks=2, ppn=1, tracer=tracer)
        cluster.install_faults(FaultPlan().kill_proc(1, at_time=1e-4))

        def rank(r):
            from repro.simtime.process import Sleep

            client = job.client(r)
            yield from client.init()
            if r == 1:
                yield Sleep(1e9)  # hangs until the injected kill

        spawn_ranks(cluster, job, [rank(0), rank(1)])
        run_bounded(cluster)
        assert len(named(tracer, "faults.plan_installed")) == 1
        assert len(named(tracer, "faults.kill_proc")) == 1
        marks = [i for i in tracer.instants if i.name.startswith("faults.")]
        assert marks and all(i.track == "events:faults" for i in marks)


class TestProtocolTraces:
    def test_excid_handshake_trace(self):
        """The trace shows: extended sends, exactly one ACK, one switch."""
        tracer = Tracer()
        world = make_world(spec=SimSpec(
            nprocs=2, machine=laptop(num_nodes=1), ppn=2,
            config=MpiConfig.sessions_prototype(), tracer=tracer,
        ))

        def main(mpi):
            session = yield from mpi.session_init()
            group = yield from session.group_from_pset("mpi://world")
            comm = yield from mpi.comm_create_from_group(group, "traced")
            for _ in range(4):
                if comm.rank == 0:
                    yield from comm.send(None, 1, tag=1, nbytes=8)
                    yield from comm.recv(1, tag=2)
                else:
                    yield from comm.recv(0, tag=1)
                    yield from comm.send(None, 0, tag=2, nbytes=8)
            comm.free()
            yield from session.finalize()

        procs = world.spawn_ranks(main)
        world.run()
        for p in procs:
            if p.exception:
                raise p.exception
        assert len(named(tracer, "pml.ext_send")) == 1
        assert len(named(tracer, "pml.cid_ack")) == 1
        assert len(named(tracer, "pml.cid_switch")) == 1
        assert {i.track for i in tracer.instants
                if i.name.startswith("pml.")} == {"events:pml"}

    def test_baseline_has_no_handshake_traffic(self):
        tracer = Tracer()
        world = make_world(spec=SimSpec(
            nprocs=2, machine=laptop(num_nodes=1), ppn=2,
            config=MpiConfig.baseline(), tracer=tracer,
        ))

        def main(mpi):
            comm = yield from mpi.mpi_init()
            if comm.rank == 0:
                yield from comm.send(None, 1, tag=1, nbytes=8)
            else:
                yield from comm.recv(0, tag=1)
            yield from mpi.mpi_finalize()

        procs = world.spawn_ranks(main)
        world.run()
        for p in procs:
            if p.exception:
                raise p.exception
        assert tracer.spans                 # traced, just no handshake
        assert not [i for i in tracer.instants if i.track == "events:pml"]
