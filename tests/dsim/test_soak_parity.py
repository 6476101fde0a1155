"""Soak-digest parity under the fault matrix — the hardest parity bar.

A partition-safe chaos plan (timed kills, src-pinned lossy links, node
kills) injected into a partitioned run must reproduce the serial soak
record *including its sha256 digest*: same deaths, same revokes, same
retransmit counters, same event totals.
"""

from __future__ import annotations

import pytest

from repro.dsim import PartitionError
from repro.recovery import soak_plan, soak_run
from repro.simtime.trace import Tracer

from .conftest import trace_bytes

pytestmark = [pytest.mark.dsim, pytest.mark.recovery]


def test_soak_digest_parity_p2_seed0():
    serial = soak_run(0, partition_safe=True)
    part = soak_run(0, partitions=2, partition_safe=True)
    assert part == serial  # full record: digest, deaths, counters, events


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("partitions", [2, 4])
def test_soak_digest_parity_matrix(seed, partitions):
    serial = soak_run(seed, partition_safe=True)
    part = soak_run(seed, partitions=partitions, partition_safe=True)
    assert part == serial


def test_traced_soak_parity_p2_seed0():
    # A caller tracer is accepted under partitions (the rule osu_init and
    # the sim scenario follow): the merged per-worker trace is adopted
    # into it, and tracing observes without steering.
    plain = soak_run(0, partition_safe=True)
    serial_tracer, part_tracer = Tracer(), Tracer()
    serial = soak_run(0, partition_safe=True, tracer=serial_tracer)
    part = soak_run(0, partitions=2, partition_safe=True, tracer=part_tracer)
    assert serial == plain and part == plain
    assert serial_tracer.spans and part_tracer.spans
    assert trace_bytes(part_tracer) == trace_bytes(serial_tracer)


def test_default_plan_is_rejected():
    # The default soak plan uses after_count kills and un-pinned message
    # actions, which cannot be replicated deterministically across
    # partitions; the run must refuse, not silently diverge.
    with pytest.raises(PartitionError):
        soak_run(0, partitions=2)


def test_partition_safe_plan_is_deterministic():
    def shape(plan):
        return [(a.kind, a.rank, a.node, a.src, a.layer, a.at_time)
                for a in plan.actions]

    assert shape(soak_plan(7, num_ranks=8, num_nodes=4, partition_safe=True)) \
        == shape(soak_plan(7, num_ranks=8, num_nodes=4, partition_safe=True))
