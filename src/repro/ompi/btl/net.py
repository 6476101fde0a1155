"""Inter-node network BTL (Aries-like).

Injection serializes at the NIC (bandwidth term); wire time adds the
one-way network latency.  The same class models slower fabrics by
swapping the machine constants (see ``machine.presets.laptop``).
"""

from __future__ import annotations

from typing import Tuple

from repro.ompi.btl.base import BTL


class NetworkBTL(BTL):
    name = "net"

    def times(self, nbytes: int) -> Tuple[float, float]:
        m = self.machine
        return m.send_overhead + nbytes / m.inter_node_bandwidth, m.inter_node_latency
