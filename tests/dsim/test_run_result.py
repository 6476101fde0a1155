"""The shared harvest: ``repro.api.run_world`` returns one shape.

``run_world`` is the only place that decides in-process vs partitioned;
both sides build their :class:`~repro.api.RunResult` through
``repro.api.harvest``, so every field — the ``counters`` key set
included — must agree between ``partitions=1`` and ``partitions=2``.
"""

from __future__ import annotations

import pytest

from repro.api import RunResult, SimSpec, run_world
from repro.dsim import DsimResult, PartitionRankError
from repro.faults import FaultPlan
from repro.machine.presets import jupiter, laptop
from repro.obs.scenarios import _sessions_init_main
from repro.ompi.config import MpiConfig
from repro.recovery import FAULT_START, T_SAFE, _soak_main

pytestmark = pytest.mark.dsim


def _soak_with_one_kill(partitions: int) -> RunResult:
    return run_world(
        SimSpec(nprocs=8, machine=laptop(num_nodes=4), ppn=2, recovery=True,
                partitions=partitions),
        _soak_main, args=(T_SAFE,),
        plan=FaultPlan().kill_proc(5, at_time=FAULT_START))


def _fig3_init(partitions: int) -> RunResult:
    return run_world(
        SimSpec(nprocs=8, machine=jupiter(4), ppn=2,
                config=MpiConfig.sessions_prototype(), partitions=partitions),
        _sessions_init_main)


@pytest.mark.parametrize("run", [_soak_with_one_kill, _fig3_init])
def test_serial_and_partitioned_results_agree(run):
    serial, part = run(1), run(2)
    assert type(serial) is RunResult and serial.world is not None
    assert type(part) is DsimResult and part.world is None
    assert part.windows > 0 and part.nparts == 2
    for name in ("results", "failures", "dead_ranks", "t_end", "events"):
        assert getattr(part, name) == getattr(serial, name), name
    assert sorted(part.counters) == sorted(serial.counters)
    assert part.counters == serial.counters
    # Untraced, unmetered runs carry neither, on either side.
    assert (serial.tracer, serial.metrics) == (None, None)
    assert (part.tracer, part.metrics) == (None, None)


@pytest.mark.parametrize("partitions", [1, 2])
def test_result_list_names_the_rank_that_died(partitions):
    res = _soak_with_one_kill(partitions)
    assert res.dead_ranks == [5]
    # The soak record embeds exactly these strings.
    assert res.failures == {
        5: ("ProcessKilled", "fault injection: injected failure (rank 5)")}
    with pytest.raises(RuntimeError, match=r"no result for rank\(s\) \[5\]"):
        res.result_list(8)


class _Boom(Exception):
    pass


def _rank1_fails(mpi):
    yield from mpi.mpi_init()
    yield from mpi.mpi_finalize()
    if mpi.rank_in_job == 1:
        raise _Boom("rank one gives up")
    return mpi.rank_in_job


@pytest.mark.parametrize("partitions", [1, 2])
def test_raise_first_failure(partitions):
    res = run_world(SimSpec(nprocs=4, machine=laptop(num_nodes=2), ppn=2,
                            partitions=partitions), _rank1_fails)
    assert res.failures == {1: ("_Boom", "rank one gives up")}
    assert res.results == {0: 0, 2: 2, 3: 3}
    if partitions == 1:
        # In-process the rank's own exception object comes back out.
        with pytest.raises(_Boom) as info:
            res.raise_first_failure()
        assert info.value is res.exceptions[1]
    else:
        with pytest.raises(PartitionRankError) as info:
            res.raise_first_failure()
        assert (info.value.rank, info.value.type_name, info.value.message) \
            == (1, "_Boom", "rank one gives up")
