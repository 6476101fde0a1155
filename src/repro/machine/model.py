"""Cost model for a simulated cluster.

All times are simulated seconds, all sizes bytes.  The constants are not
meant to match the paper's absolute numbers (its testbed is gone); they
are chosen so the *ratios* the paper reports hold: inter- vs intra-node
latency, PMIx group-construct cost vs an allreduce, NFS-bound startup
growth, and the small per-message penalty of the extended exCID header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict


@dataclass(frozen=True)
class MachineModel:
    """Immutable description of cluster hardware + system software costs."""

    name: str = "generic"
    num_nodes: int = 1
    cores_per_node: int = 16

    # -- interconnect ------------------------------------------------------
    intra_node_latency: float = 0.30e-6     # shared-memory one-way latency
    intra_node_bandwidth: float = 8.0e9     # bytes/s
    inter_node_latency: float = 1.30e-6     # NIC-to-NIC one-way latency
    inter_node_bandwidth: float = 10.0e9    # bytes/s
    eager_limit: int = 4096                 # bytes; above this, rendezvous

    # -- per-message software costs (the PML's CPU time) --------------------
    send_overhead: float = 0.10e-6          # sender-side injection cost
    match_overhead: float = 0.08e-6         # receiver-side tag-match cost
    extended_match_overhead: float = 0.25e-6  # hash lookup of exCID -> comm
    # (the extended header's 20 wire bytes live in pml.headers)

    # -- runtime / PMIx costs -----------------------------------------------
    local_rpc_cost: float = 2.0e-6          # client <-> node-local PMIx server
    server_msg_cost: float = 8.0e-6         # PMIx server <-> server (sw + wire)
    daemon_wireup_cost: float = 150.0e-6    # per-daemon DVM bootstrap cost
    pgcid_allocate_cost: float = 5.0e-6     # HNP assigns a 64-bit PGCID

    # Server-side processing per local participant in collective PMIx ops.
    # The first group/fence on a server is "cold" (connection setup, state
    # allocation — dominant in the paper's startup measurements); later
    # operations are "warm" (what an MPI_Comm_dup-acquired PGCID costs).
    fence_client_cost_cold: float = 2.2e-3
    fence_client_cost_warm: float = 8.0e-6
    group_client_cost_cold: float = 6.0e-3
    group_client_cost_warm: float = 20.0e-6

    # -- process startup ----------------------------------------------------
    # The paper attributes its large absolute init times to libraries being
    # loaded from "a relatively slow NFS-mounted file system"; contention
    # grows with the number of processes hitting the filesystem at once.
    nfs_base_load: float = 0.250            # per-process library load, alone
    nfs_contention: float = 0.004           # extra seconds per concurrent proc
    proc_local_init: float = 3.0e-3         # MCA registry, malloc pools, ...
    session_subsys_init: float = 1.0e-3     # per-subsystem lazy init (sessions)
    session_handle_init_cost: float = 60.0e-3  # first-session MPI resource init
    add_procs_local_cost: float = 0.1e-3    # per node-local peer at MPI_Init

    # -- fault handling ------------------------------------------------------
    # How long until a death is noticed: the HNP's daemon heartbeat
    # timeout (node failures) and the runtime's error-propagation delay
    # (proc failures) share one constant at this fidelity.
    daemon_failure_detect: float = 50.0e-6
    # Bounded-termination net: once faults are active, a PMIx collective
    # stuck longer than this fails with PMIX_ERR_TIMEOUT instead of
    # hanging (covers races the propagation protocol cannot see).
    fault_collective_timeout: float = 0.5
    # Reliable-RML retransmission (recovery mode, docs/recovery.md).
    # The base RTO is ~10x the server-to-server hop plus payload time, so
    # a healthy link never retransmits; the full 8-retry exponential
    # backoff sums to ~0.05 s, comfortably inside the collective timeout.
    rml_rto: float = 2.0e-4
    rml_backoff: float = 2.0
    rml_max_retries: int = 8

    # -- OS scheduling -------------------------------------------------------
    # Effective nanosleep() wakeup granularity under load (timer slack +
    # scheduler latency on a busy node) — drives the sessions-quiescence
    # overhead in the 2MESH experiment.
    nanosleep_quantum: float = 30.0e-6

    def __post_init__(self) -> None:
        # A model can come from outside (a serve payload is JSON, which
        # spells NaN and Infinity): a NaN cost would run events out of
        # order without any error, an infinite one ends at t = inf.
        for name in _NUMERIC_FIELDS:
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and 0 <= value < math.inf):
                raise ValueError(f"MachineModel.{name} must be a finite "
                                 f"number >= 0, got {value!r}")
            if not value and name in _POSITIVE_FIELDS:
                raise ValueError(f"MachineModel.{name} must be > 0, got {value!r}")

    def with_nodes(self, num_nodes: int) -> "MachineModel":
        """A copy of this model scaled to ``num_nodes`` nodes."""
        return replace(self, num_nodes=num_nodes)

    def replace(self, **kw) -> "MachineModel":
        """A copy of this model with the given fields overridden."""
        return replace(self, **kw)

    # -- derived costs -------------------------------------------------------
    def wire_time(self, same_node: bool, nbytes: int) -> float:
        """One-way transfer time for ``nbytes`` between two ranks."""
        if same_node:
            return self.intra_node_latency + nbytes / self.intra_node_bandwidth
        return self.inter_node_latency + nbytes / self.inter_node_bandwidth

    def nfs_load_time(self, concurrent_procs: int) -> float:
        """Library-load time with ``concurrent_procs`` processes competing.

        Contention grows with the logarithm of the total process count:
        NFS read caching means most of the cost is metadata round-trips,
        which scale sub-linearly in practice.
        """
        if concurrent_procs < 1:
            concurrent_procs = 1
        return self.nfs_base_load + self.nfs_contention * math.log2(concurrent_procs + 1) * 10.0

    def describe(self) -> Dict[str, str]:
        """Human-readable summary used by the Table I bench target."""
        return {
            "Model": self.name,
            "Nodes": str(self.num_nodes),
            "Cores/node": str(self.cores_per_node),
            "Intra latency": f"{self.intra_node_latency * 1e6:.2f} us",
            "Inter latency": f"{self.inter_node_latency * 1e6:.2f} us",
            "Intra bandwidth": f"{self.intra_node_bandwidth / 1e9:.1f} GB/s",
            "Inter bandwidth": f"{self.inter_node_bandwidth / 1e9:.1f} GB/s",
        }


_NUMERIC_FIELDS = tuple(f.name for f in fields(MachineModel) if f.name != "name")
_POSITIVE_FIELDS = ("num_nodes", "cores_per_node",
                    "intra_node_bandwidth", "inter_node_bandwidth")
