"""MPI-IO over a simulated shared (NFS-like) filesystem.

Completes the paper's §III-B6 object set: files can be created from
groups through the intermediate-communicator path
(:meth:`File.open_from_group`).  The filesystem is one shared byte
store per cluster with latency/bandwidth costs; collective writes model
two-phase I/O by aggregating the per-rank requests at a barrier before
touching the (slow) filesystem once.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.ompi.errors import MPIErrArg
from repro.simtime.process import Sleep

# NFS-like shared-filesystem costs (per operation).
FS_LATENCY = 40.0e-6        # metadata/RPC round trip
FS_BANDWIDTH = 600.0e6      # bytes/s sustained

# Open modes (subset of MPI constants).
MODE_RDONLY = 1
MODE_WRONLY = 2
MODE_RDWR = 4
MODE_CREATE = 8
MODE_EXCL = 16
MODE_APPEND = 32


class SimFilesystem:
    """The cluster-wide shared byte store (one per Cluster, lazily).

    Accesses to one file serialize (``reserve``): concurrent independent
    writers queue behind each other as they would on an NFS server —
    which is exactly the cost collective (two-phase) I/O avoids."""

    def __init__(self) -> None:
        self.files: Dict[str, bytearray] = {}
        self._busy: Dict[str, float] = {}

    @classmethod
    def of(cls, cluster) -> "SimFilesystem":
        fs = getattr(cluster, "_simfs", None)
        if fs is None:
            fs = cls()
            cluster._simfs = fs
        return fs

    def reserve(self, path: str, now: float, cost: float) -> float:
        """Book one serialized access; returns its completion time."""
        start = max(now, self._busy.get(path, 0.0))
        done = start + cost
        self._busy[path] = done
        return done


class File:
    """One rank's handle on a collectively opened file."""

    _ids = itertools.count()

    def __init__(self, comm, fs: SimFilesystem, path: str, mode: int) -> None:
        self._comm = comm            # internal dup, owned by the file
        self._fs = fs
        self.path = path
        self.mode = mode
        self.offset = 0              # individual file pointer
        self.closed = False
        self.fh_id = next(self._ids)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, comm, path: str, mode: int = MODE_RDWR | MODE_CREATE):
        """Sub-generator: MPI_File_open — collective over ``comm``."""
        if not path:
            raise MPIErrArg("empty file name")
        fs = SimFilesystem.of(comm.runtime.cluster)
        exists = path in fs.files
        if not exists and not mode & MODE_CREATE:
            raise MPIErrArg(f"file {path!r} does not exist (no MPI_MODE_CREATE)")
        if exists and mode & MODE_EXCL:
            raise MPIErrArg(f"file {path!r} exists (MPI_MODE_EXCL)")
        internal = yield from comm.dup()
        if not exists:
            fs.files.setdefault(path, bytearray())
        yield Sleep(FS_LATENCY)      # open RPC
        yield from internal.barrier()
        return cls(internal, fs, path, mode)

    @classmethod
    def open_from_group(cls, runtime, group, stringtag: str, path: str,
                        mode: int = MODE_RDWR | MODE_CREATE):
        """Sub-generator: file-from-group via the intermediate
        communicator (paper §III-B6)."""
        intermediate = yield from runtime.comm_create_from_group(
            group, f"file:{stringtag}"
        )
        fh = yield from cls.open(intermediate, path, mode)
        intermediate.free()
        return fh

    # ------------------------------------------------------------------
    def _check(self, writing: bool = False) -> None:
        if self.closed:
            raise MPIErrArg("file used after close")
        if writing and not self.mode & (MODE_WRONLY | MODE_RDWR):
            raise MPIErrArg("file not opened for writing")
        if not writing and not self.mode & (MODE_RDONLY | MODE_RDWR):
            raise MPIErrArg("file not opened for reading")

    def _data(self) -> bytearray:
        return self._fs.files[self.path]

    def _io_cost(self, nbytes: int) -> float:
        return FS_LATENCY + nbytes / FS_BANDWIDTH

    def _serialized_io(self, nbytes: int):
        """Sub-generator: one independent access — queues at the FS."""
        engine = self._comm.runtime.engine
        done = self._fs.reserve(self.path, engine.now, self._io_cost(nbytes))
        yield Sleep(done - engine.now)

    # ------------------------------------------------------------------
    # explicit-offset operations
    # ------------------------------------------------------------------
    def write_at(self, offset: int, data: bytes):
        """Sub-generator: MPI_File_write_at."""
        self._check(writing=True)
        if offset < 0:
            raise MPIErrArg("negative file offset")
        data = bytes(data)
        yield from self._serialized_io(len(data))
        buf = self._data()
        end = offset + len(data)
        if len(buf) < end:
            buf.extend(b"\x00" * (end - len(buf)))
        buf[offset:end] = data
        return len(data)

    def read_at(self, offset: int, count: int):
        """Sub-generator: MPI_File_read_at; returns the bytes read."""
        self._check()
        if offset < 0 or count < 0:
            raise MPIErrArg("negative offset/count")
        yield from self._serialized_io(count)
        buf = self._data()
        return bytes(buf[offset:offset + count])

    # ------------------------------------------------------------------
    # individual-file-pointer operations
    # ------------------------------------------------------------------
    def write(self, data: bytes):
        """Sub-generator: MPI_File_write (advances the local pointer)."""
        n = yield from self.write_at(self.offset, data)
        self.offset += n
        return n

    def read(self, count: int):
        """Sub-generator: MPI_File_read (advances the local pointer)."""
        out = yield from self.read_at(self.offset, count)
        self.offset += len(out)
        return out

    def seek(self, offset: int) -> None:
        if offset < 0:
            raise MPIErrArg("negative seek")
        self.offset = offset

    # ------------------------------------------------------------------
    # collective operations (two-phase aggregation)
    # ------------------------------------------------------------------
    def write_at_all(self, offset: int, data: bytes):
        """Sub-generator: MPI_File_write_at_all.

        The aggregation barrier lets one "aggregator" (rank 0's cost
        account) stream everyone's data in a single sequential pass —
        cheaper per byte than independent writes."""
        self._check(writing=True)
        data = bytes(data)
        sizes = yield from self._comm.allgather(len(data), nbytes=8)
        total = sum(sizes)
        # Two-phase I/O: one aggregator makes a single sequential pass
        # over everyone's data (one latency, one bandwidth term, one
        # reservation) instead of size() queued independent accesses.
        engine = self._comm.runtime.engine
        if self._comm.rank == 0:
            done = self._fs.reserve(self.path, engine.now, self._io_cost(total))
            yield Sleep(done - engine.now)
        buf = self._data()
        end = offset + len(data)
        if len(buf) < end:
            buf.extend(b"\x00" * (end - len(buf)))
        buf[offset:end] = data
        yield from self._comm.barrier()
        return len(data)

    def read_at_all(self, offset: int, count: int):
        """Sub-generator: MPI_File_read_at_all."""
        self._check()
        counts = yield from self._comm.allgather(count, nbytes=8)
        engine = self._comm.runtime.engine
        if self._comm.rank == 0:
            done = self._fs.reserve(self.path, engine.now, self._io_cost(sum(counts)))
            yield Sleep(done - engine.now)
        buf = self._data()
        out = bytes(buf[offset:offset + count])
        yield from self._comm.barrier()
        return out

    # ------------------------------------------------------------------
    def get_size(self):
        """Sub-generator: MPI_File_get_size."""
        if self.closed:
            raise MPIErrArg("file used after close")
        yield Sleep(FS_LATENCY)
        return len(self._data())

    def close(self):
        """Sub-generator: MPI_File_close — collective."""
        if self.closed:
            raise MPIErrArg("file closed twice")
        yield Sleep(FS_LATENCY)
        yield from self._comm.barrier()
        self._comm.free()
        self.closed = True

    @staticmethod
    def delete(cluster, path: str) -> None:
        """MPI_File_delete (local bookkeeping)."""
        SimFilesystem.of(cluster).files.pop(path, None)
