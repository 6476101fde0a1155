"""MPI one-sided communication (windows), active target only.

A window is allocated collectively over a communicator
(``MPI_Win_allocate``), written with ``put`` and synchronized with
``fence``.  Windows are not created from groups here: the paper's
§III-B6 intermediate-communicator flow is modelled for files
(:meth:`repro.ompi.io.File.open_from_group`).

Simulation semantics follow MPI's epoch rules: a ``put`` is queued
during an epoch and takes effect at the closing ``fence``.  Reading a
window's memory before the fence sees the pre-epoch values — tests rely
on this to catch misuse.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.ompi.errors import MPIErrArg
from repro.simtime.process import Sleep

if TYPE_CHECKING:
    import numpy as np

RMA_ISSUE_OVERHEAD = 0.15e-6    # CPU cost to issue one RMA op


class Window:
    """One rank's handle on a collectively created RMA window."""

    def __init__(self, comm, memory: np.ndarray, peers: List[np.ndarray]) -> None:
        self._comm = comm              # internal dup, owned by the window
        self.size = comm.size
        self.memory = memory
        self._peers = peers            # rank -> that rank's exposed array
        # Queued puts as (target, offset, data), applied at the fence.
        self._pending: List[Tuple[int, int, np.ndarray]] = []
        self.freed = False

    @classmethod
    def allocate(cls, comm, count: int, dtype="float64"):
        """Sub-generator: MPI_Win_allocate — collective over ``comm``."""
        import numpy as np      # first use: windows are where arrays start

        if count < 0:
            raise MPIErrArg("window size must be >= 0")
        internal = yield from comm.dup()
        memory = np.zeros(count, dtype=dtype)
        # Exchange exposure handles (the simulation's "registration").
        peers = yield from internal.allgather(memory, nbytes=64)
        yield Sleep(RMA_ISSUE_OVERHEAD * 4)  # registration cost
        return cls(internal, memory, peers)

    # ------------------------------------------------------------------
    def _check(self, target=None) -> None:
        if self.freed:
            raise MPIErrArg("window used after free")
        if target is not None and not 0 <= target < self.size:
            raise MPIErrArg(f"target rank {target} out of range")

    def _transfer_cost(self, target: int, nbytes: int) -> float:
        machine = self._comm.runtime.machine
        server = self._comm.runtime.pmix.server
        peer = self._comm.group.proc(target)
        same = server.node_of(peer) == self._comm.runtime.node
        return RMA_ISSUE_OVERHEAD + machine.wire_time(same, nbytes)

    def put(self, data, target: int, offset: int = 0):
        """Sub-generator: queue a put; visible after the next fence."""
        import numpy as np

        self._check(target)
        arr = np.asarray(data)
        limit = self._peers[target].size
        if offset < 0 or offset + arr.size > limit:
            raise MPIErrArg(
                f"RMA access [{offset}, {offset + arr.size}) exceeds window size {limit}"
            )
        yield Sleep(self._transfer_cost(target, arr.nbytes))
        self._pending.append((target, offset, arr.copy()))

    def fence(self):
        """Sub-generator: MPI_Win_fence — closes/opens an active epoch.

        Two-phase: first barrier guarantees no rank is still computing
        in the old epoch (so pre-fence reads never see new data), then
        the puts apply, then the second barrier guarantees every
        post-fence read sees all of them."""
        self._check()
        yield from self._comm.barrier()
        for target, offset, data in self._pending:
            self._peers[target][offset:offset + data.size] = data
        self._pending = []
        yield from self._comm.barrier()

    def free(self) -> None:
        """Release the window and its internal communicator (local)."""
        self._check()
        if self._pending:
            raise MPIErrArg("window freed with pending RMA operations")
        self._comm.free()
        self.freed = True
