"""Partitionability validation: every unsafe input must refuse loudly.

The alternative to each of these errors is a run that *silently
diverges* from the single-process reference — the one failure mode the
dsim contract cannot tolerate.
"""

from __future__ import annotations

import pytest

from repro import dsim
from repro.api import SimSpec
from repro.dsim import PartitionError, PartitionMap, validate_plan
from repro.machine.presets import laptop
from repro.simtime.faults import FaultPlan
from repro.simtime.trace import Tracer

pytestmark = pytest.mark.dsim


def _noop(mpi):
    yield from mpi.mpi_init()
    yield from mpi.mpi_finalize()


def test_more_partitions_than_nodes_rejected():
    spec = SimSpec(nprocs=4, machine=laptop(num_nodes=2), ppn=2,
                   partitions=3)
    with pytest.raises(PartitionError):
        dsim.run_partitioned(spec, _noop)


def test_spec_tracer_rejected():
    spec = SimSpec(nprocs=4, machine=laptop(num_nodes=2), ppn=2,
                   partitions=2, tracer=Tracer())
    with pytest.raises(PartitionError, match="traced=True"):
        dsim.run_partitioned(spec, _noop)


def test_after_count_kill_rejected():
    plan = FaultPlan().kill_proc(1, after_count=5)
    with pytest.raises(PartitionError):
        validate_plan(plan, 2)


def test_unpinned_message_action_rejected():
    plan = FaultPlan().drop_msg(prob=0.1, seed=1)
    with pytest.raises(PartitionError):
        validate_plan(plan, 2)


def test_pinned_message_action_accepted():
    plan = FaultPlan()
    plan.lossy_link(0.1, seed=1, layer="rml", src=0, at_time=0.01)
    plan.kill_proc(1, at_time=0.02)
    validate_plan(plan, 2)          # must not raise
    validate_plan(None, 4)          # no plan is always safe


def test_faults_drop_scenario_rejected():
    from repro.obs.scenarios import run_scenario

    with pytest.raises(PartitionError):
        run_scenario("faults-drop", nodes=4, ppn=2, partitions=2)


def test_engine_compat_rejected():
    from repro.obs.scenarios import run_scenario

    with pytest.raises(PartitionError):
        run_scenario("fig3-init", nodes=4, ppn=2, partitions=2,
                     engine_compat=True)


def test_engine_compat_rejected_by_run_partitioned():
    # The refusal lives in run_partitioned itself, next to the tracer
    # check, so no caller can forget it.
    spec = SimSpec(nprocs=4, machine=laptop(num_nodes=2), ppn=2,
                   partitions=2, engine_compat=True)
    with pytest.raises(PartitionError, match="reference scheduler"):
        dsim.run_partitioned(spec, _noop)


def test_engine_compat_rejected_through_serve_sim_scenario():
    from repro.serve import run_simspec

    spec = SimSpec(nprocs=4, machine=laptop(num_nodes=2), ppn=2,
                   partitions=2, engine_compat=True)
    with pytest.raises(PartitionError, match="reference scheduler"):
        run_simspec(spec.to_payload())


def test_partition_map_is_contiguous_by_node():
    pmap = PartitionMap(3, 8)
    owners = [pmap.node_partition(n) for n in range(8)]
    assert owners == sorted(owners)
    assert set(owners) == {0, 1, 2}
    assert owners[0] == 0                   # HNP stays in partition 0
    for pid in range(3):
        assert [pmap.node_partition(n) for n in pmap.nodes_of(pid)] \
            == [pid] * len(pmap.nodes_of(pid))
