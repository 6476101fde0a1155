"""The two scheduler kernels execute the same events on both engines."""

from repro.bench.perf import comm_dup, fence_storm


def test_kernel_event_counts_match_compat():
    fence = fence_storm(False, 16, 20)
    dup = comm_dup(False, 8, 20)
    assert fence > 0 and dup > 0
    assert fence == fence_storm(True, 16, 20)
    assert dup == comm_dup(True, 8, 20)
