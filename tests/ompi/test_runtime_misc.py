"""Runtime odds and ends + regression tests for review findings."""

import pytest

from repro.api import SimSpec, make_world
from repro.machine.presets import laptop
from repro.ompi.config import MpiConfig
from repro.ompi.constants import SUM


def test_stale_cid_stash_dropped_on_free():
    """Regression (code review): a packet stashed for a freed
    communicator's CID must not be replayed into a new communicator
    that reuses the index."""
    world = make_world(spec=SimSpec(nprocs=2, machine=laptop(num_nodes=2),
                                    ppn=1, config=MpiConfig.baseline()))
    out = {}

    def sender(mpi):
        comm = yield from mpi.mpi_init()
        x = yield from comm.dup()
        # Fire a message on X that will arrive at rank 1 *after* rank 1
        # has freed X and reused its CID for Y.
        yield from x.send("stale-for-X", 1, tag=1, nbytes=16)
        x.free()
        y = yield from comm.dup()
        yield from y.send("fresh-for-Y", 1, tag=1, nbytes=16)
        got = yield from y.recv(1, tag=2)
        out["sender"] = got
        y.free()
        yield from mpi.mpi_finalize()

    def receiver(mpi):
        from repro.simtime.process import Sleep

        comm = yield from mpi.mpi_init()
        x = yield from comm.dup()
        # Receive X's message normally, then free X: its CID returns to
        # the table and Y (the next dup) reuses it.
        msg_x = yield from x.recv(0, tag=1)
        x.free()
        y = yield from comm.dup()
        msg_y = yield from y.recv(0, tag=1)
        yield from y.send("ack", 0, tag=2, nbytes=4)
        out["receiver"] = (msg_x, msg_y, y.local_cid)
        y.free()
        yield from mpi.mpi_finalize()

    procs = world.spawn_ranks(lambda mpi: sender(mpi) if mpi.rank_in_job == 0 else receiver(mpi))
    world.run()
    for p in procs:
        if p.exception:
            raise p.exception
    msg_x, msg_y, _cid = out["receiver"]
    assert msg_x == "stale-for-X"
    assert msg_y == "fresh-for-Y"


def test_excid_enabled_matrix():
    from repro.ompi.runtime import MpiRuntime

    world = make_world(spec=SimSpec(nprocs=1, machine=laptop(num_nodes=1), ppn=1))
    cases = [
        (MpiConfig(cid_mode="excid", pml="ob1"), True),
        (MpiConfig(cid_mode="excid", pml="cm"), False),
        (MpiConfig(cid_mode="consensus", pml="ob1"), False),
    ]
    for config, expected in cases:
        rt = MpiRuntime(world.cluster, world.job, world.fabric, 0, config)
        assert rt.excid_enabled is expected, config


def test_instance_release_without_acquire_rejected():
    from repro.ompi.errors import MPIErrIntern
    from repro.ompi.instance import instance_release
    from repro.ompi.runtime import MpiRuntime

    world = make_world(spec=SimSpec(nprocs=1, machine=laptop(num_nodes=1), ppn=1))
    rt = MpiRuntime(world.cluster, world.job, world.fabric, 0)
    with pytest.raises(MPIErrIntern, match="released more times than acquired"):
        next(instance_release(rt))
    assert rt.instance_refcount == 0 and not rt.instance_up


@pytest.mark.parametrize("entry", ["session_init", "mpi_init"])
def test_unknown_pml_fails_the_first_init(entry):
    """A config naming no real PML is accepted until the instance first
    comes up, where the PML is selected (MCA ``select``)."""
    from repro.ompi.errors import MPIErrIntern

    world = make_world(spec=SimSpec(nprocs=1, machine=laptop(num_nodes=1), ppn=1,
                                    config=MpiConfig(pml="laptop")))

    def main(mpi):
        yield from getattr(mpi, entry)()

    procs = world.spawn_ranks(main)
    world.run()
    err = procs[0].exception
    assert isinstance(err, MPIErrIntern), err
    assert "pml/laptop" in str(err)
    assert world.runtimes[0].endpoint is None


def test_bad_config_values_rejected():
    with pytest.raises(ValueError):
        MpiConfig(cid_mode="telepathy")
    with pytest.raises(ValueError):
        MpiConfig(excid_dup_policy="always")


def test_wtime_matches_engine(one_node_cluster):
    from repro.ompi.pml.ob1 import Fabric
    from repro.ompi.runtime import MpiRuntime

    job = one_node_cluster.launch(1, ppn=1)
    rt = MpiRuntime(one_node_cluster, job, Fabric(one_node_cluster), 0)
    assert rt.wtime() == one_node_cluster.engine.now


def test_finalize_is_synchronizing(mpi_run):
    """MPI_Finalize must not let a fast rank finish while a slow rank is
    still communicating (ompi fences in finalize)."""
    from repro.simtime.process import Sleep

    done_at = {}

    def main(mpi):
        world = yield from mpi.mpi_init()
        if world.rank == 1:
            yield Sleep(5e-3)
        yield from mpi.mpi_finalize()
        done_at[mpi.rank_in_job] = mpi.engine.now
        return "ok"

    mpi_run(2, main)
    assert abs(done_at[0] - done_at[1]) < 1e-3
