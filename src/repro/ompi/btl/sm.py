"""Shared-memory BTL (vader-like).

On-node transfers: injection is dominated by the copy into the shared
segment; wire time is the copy-out latency.  Single-copy mechanisms
(CMA/xpmem) are approximated by the bandwidth constant.
"""

from __future__ import annotations

from typing import Tuple

from repro.ompi.btl.base import BTL


class SharedMemoryBTL(BTL):
    name = "sm"

    def times(self, nbytes: int) -> Tuple[float, float]:
        m = self.machine
        return m.send_overhead + nbytes / m.intra_node_bandwidth, m.intra_node_latency
