"""The two scheduler kernels execute exactly their pinned event counts.

Their first positional parameter is ignored: ``benchmarks/suite`` still
passes one."""

from repro.bench.perf import comm_dup, fence_storm


def test_kernel_event_counts_are_pinned():
    assert fence_storm(False, 16, 20) == fence_storm(True, 16, 20) == 3536
    assert comm_dup(False, 8, 20) == comm_dup(True, 8, 20) == 1768
