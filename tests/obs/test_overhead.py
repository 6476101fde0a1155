"""Tracing must not perturb the simulation, and costs nothing when off.

Instrumentation adds no Sleep and no engine events, so a traced run and
an untraced run of the same program are *structurally identical*: same
final simulated time, same executed-event count.  That is a stronger
guarantee than "within noise" — the guard asserts exact equality.

With tracing off every instrumentation site is one ``tracer.enabled``
branch (or a test of the span id it stored): the free-when-off gate
counts Python calls (``tests/_callcount.py``) into the tracer, into the
``trace``/``_obs_*`` helpers, into the ``obs_track`` properties that
build their arguments and anywhere in ``repro.obs`` (a world builds its
metrics registry only when something reads it), from world construction
to quiescence, and requires none.
"""

import pytest

from repro.api import SimSpec, make_world
from repro.machine.presets import jupiter
from repro.ompi.config import MpiConfig
from repro.ompi.constants import SUM
from repro.simtime.trace import Tracer
from tests._callcount import counting_calls
from tests.ompi.test_init_scaling import PPN, sessions_main, simspec_job, world_main
from tests.ompi.test_message_path_cost import program

pytestmark = pytest.mark.obs


def _sessions_main(mpi):
    session = yield from mpi.session_init()
    group = yield from session.group_from_pset("mpi://world")
    comm = yield from mpi.comm_create_from_group(group, "ovh")
    yield from comm.barrier()
    value = yield from comm.allreduce(comm.rank, op=SUM)
    comm.free()
    yield from session.finalize()
    return value


def _measure(tracer):
    world = make_world(spec=SimSpec(
        nprocs=4, machine=jupiter(2), ppn=2,
        config=MpiConfig.sessions_prototype(), tracer=tracer))
    procs = world.spawn_ranks(_sessions_main)
    t_end = world.run()
    for p in procs:
        if p.exception is not None:
            raise p.exception
    return t_end, world.cluster.engine.events_executed, [p.result for p in procs]


class TestZeroOverhead:
    def test_traced_run_is_structurally_identical(self):
        t_off, ev_off, res_off = _measure(tracer=None)      # NullTracer
        t_on, ev_on, res_on = _measure(tracer=Tracer())
        assert t_on == t_off                 # exact, not approximate
        assert ev_on == ev_off
        assert res_on == res_off

    def test_disabled_default_records_nothing(self):
        world = make_world(spec=SimSpec(
            nprocs=4, machine=jupiter(2), ppn=2,
            config=MpiConfig.sessions_prototype()))
        procs = world.spawn_ranks(_sessions_main)
        world.run()
        for p in procs:
            if p.exception is not None:
                raise p.exception
        tr = world.cluster.engine.tracer
        assert not tr.spans and not tr.flows and not tr.instants
        assert world.cluster.engine.metrics is None     # built on first read
        assert world.cluster.metrics.counters == {}
        assert world.cluster.metrics.histograms == {}


def _tracing_calls(tally):
    """The calls of ``tally`` that only tracing or metrics should make."""
    return {(path, name): n for (path, name), n in tally.items()
            if path == "simtime/trace.py" or path.startswith("obs/")
            or name == "obs_track"
            or (path, name) in {("faults/__init__.py", "trace"),
                                ("ompi/comm.py", "_obs_begin"),
                                ("ompi/comm.py", "_obs_end")}}


def _fig3_job(main, config):
    def run():
        world = make_world(SimSpec(nprocs=8 * PPN, machine=jupiter(8), ppn=PPN,
                                   config=config()))
        world.spawn_ranks(main)
        world.run()
    return run


def _message_path_job():
    world = make_world(SimSpec(nprocs=8, machine=jupiter(2), ppn=4,
                               config=MpiConfig.sessions_prototype()))
    world.spawn_ranks(program(10, sessions=True))
    world.run()


FREE_WHEN_OFF = {
    "fig3-sessions-8x16": _fig3_job(sessions_main, MpiConfig.sessions_prototype),
    "fig3-mpi-init-8x16": _fig3_job(world_main, MpiConfig.baseline),
    "run-simspec-sessions-2x8": simspec_job,
    "message-path-8": _message_path_job,
}


@pytest.mark.parametrize("job", sorted(FREE_WHEN_OFF))
def test_tracing_off_makes_no_tracing_call(job):
    with counting_calls() as tally:
        FREE_WHEN_OFF[job]()
    assert tally.total > 1000                # the hook saw the run
    assert _tracing_calls(tally) == {}
