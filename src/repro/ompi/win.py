"""MPI one-sided communication (windows).

Paper §III-B6: the prototype creates windows (and files) from groups by
building an *intermediate communicator* with the exCID machinery,
calling the MPI-3 constructor, and freeing the intermediate — that flow
is :meth:`Window.create_from_group`.

Simulation semantics follow MPI's epoch rules: ``put``/``get``/
``accumulate`` are queued during an epoch and take effect at the
closing synchronization (``fence`` for active target, ``unlock`` for
passive target).  Reading a window's memory before the close sees the
pre-epoch values — tests rely on this to catch misuse.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.ompi.errors import MPIErrArg, MPIErrIntern
from repro.simtime.process import Sleep

if TYPE_CHECKING:
    import numpy as np

RMA_ISSUE_OVERHEAD = 0.15e-6    # CPU cost to issue one RMA op


class _PendingOp:
    __slots__ = ("kind", "target", "offset", "data", "op", "box")

    def __init__(self, kind, target, offset, data=None, op=None, box=None):
        self.kind = kind
        self.target = target
        self.offset = offset
        self.data = data
        self.op = op
        self.box = box


class RmaHandle:
    """Returned by :meth:`Window.get`: ``data`` is valid after the epoch
    closes (fence/unlock)."""

    __slots__ = ("data", "complete")

    def __init__(self) -> None:
        self.data: Optional[np.ndarray] = None
        self.complete = False


class Window:
    """One rank's handle on a collectively created RMA window."""

    _ids = itertools.count()

    def __init__(self, comm, memory: np.ndarray, peers: List[np.ndarray]) -> None:
        self._comm = comm              # internal dup, owned by the window
        self.rank = comm.rank
        self.size = comm.size
        self.memory = memory
        self._peers = peers            # rank -> that rank's exposed array
        self._pending: List[_PendingOp] = []
        self._locked: Optional[int] = None
        self.win_id = next(self._ids)
        self.freed = False

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
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

    @classmethod
    def create_from_group(cls, runtime, group, stringtag: str, count: int, dtype="float64"):
        """Sub-generator: MPI_Win_allocate_from_group via the prototype's
        intermediate-communicator path (§III-B6)."""
        intermediate = yield from runtime.comm_create_from_group(
            group, f"win:{stringtag}"
        )
        win = yield from cls.allocate(intermediate, count, dtype)
        intermediate.free()  # the window keeps its own internal dup
        return win

    # ------------------------------------------------------------------
    def _check(self, target: Optional[int] = None) -> None:
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

    # ------------------------------------------------------------------
    # RMA operations (queued until the epoch closes)
    # ------------------------------------------------------------------
    def put(self, data, target: int, offset: int = 0):
        """Sub-generator: queue a put; visible at fence/unlock."""
        import numpy as np

        self._check(target)
        arr = np.asarray(data)
        self._bounds(target, offset, arr.size)
        yield Sleep(self._transfer_cost(target, arr.nbytes))
        self._pending.append(_PendingOp("put", target, offset, data=arr.copy()))

    def get(self, target: int, count: int, offset: int = 0):
        """Sub-generator: queue a get; handle.data valid after the close."""
        self._check(target)
        self._bounds(target, offset, count)
        itemsize = self._peers[target].dtype.itemsize
        yield Sleep(self._transfer_cost(target, count * itemsize))
        box = RmaHandle()
        self._pending.append(_PendingOp("get", target, offset, data=count, box=box))
        return box

    def accumulate(self, data, target: int, op, offset: int = 0):
        """Sub-generator: queue an accumulate (elementwise ``op``)."""
        import numpy as np

        self._check(target)
        arr = np.asarray(data)
        self._bounds(target, offset, arr.size)
        yield Sleep(self._transfer_cost(target, arr.nbytes))
        self._pending.append(_PendingOp("acc", target, offset, data=arr.copy(), op=op))

    def _bounds(self, target: int, offset: int, count: int) -> None:
        limit = self._peers[target].size
        if offset < 0 or offset + count > limit:
            raise MPIErrArg(
                f"RMA access [{offset}, {offset + count}) exceeds window size {limit}"
            )

    def _apply(self, only_target: Optional[int] = None) -> None:
        rest: List[_PendingOp] = []
        for op in self._pending:
            if only_target is not None and op.target != only_target:
                rest.append(op)
                continue
            mem = self._peers[op.target]
            if op.kind == "put":
                mem[op.offset:op.offset + op.data.size] = op.data
            elif op.kind == "acc":
                window_slice = mem[op.offset:op.offset + op.data.size]
                mem[op.offset:op.offset + op.data.size] = [
                    op.op(a, b) for a, b in zip(window_slice, op.data)
                ]
            elif op.kind == "get":
                op.box.data = mem[op.offset:op.offset + op.data].copy()
                op.box.complete = True
            else:  # pragma: no cover
                raise MPIErrIntern(f"unknown RMA op {op.kind}")
        self._pending = rest

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def fence(self):
        """Sub-generator: MPI_Win_fence — closes/opens an active epoch.

        Two-phase: first barrier guarantees no rank is still computing
        in the old epoch (so pre-fence reads never see new data), then
        ops apply, then the second barrier guarantees every post-fence
        read sees all of them."""
        self._check()
        yield from self._comm.barrier()
        self._apply()
        yield from self._comm.barrier()

    def lock(self, target: int):
        """Sub-generator: MPI_Win_lock (passive target, exclusive)."""
        self._check(target)
        if self._locked is not None:
            raise MPIErrArg("window already holds a lock")
        yield Sleep(self._transfer_cost(target, 0) * 2)  # lock RTT
        self._locked = target

    def unlock(self, target: int):
        """Sub-generator: MPI_Win_unlock — completes ops on ``target``."""
        self._check(target)
        if self._locked != target:
            raise MPIErrArg(f"window not locked on target {target}")
        self._apply(only_target=target)
        yield Sleep(self._transfer_cost(target, 0))
        self._locked = None

    def free(self) -> None:
        """Release the window and its internal communicator (local)."""
        self._check()
        if self._pending:
            raise MPIErrArg("window freed with pending RMA operations")
        self._comm.free()
        self.freed = True
