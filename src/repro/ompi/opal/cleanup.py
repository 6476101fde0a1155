"""The OPAL cleanup-callback framework (paper §III-B5).

Classic Open MPI initialized everything in ``MPI_Init`` and tore it
down in a carefully ordered ``MPI_Finalize``.  The sessions prototype
replaces that with lazy, reference-counted subsystems: the first user
of a subsystem initializes it and registers a cleanup callback; when
the last MPI Session is finalized the accumulated callbacks run in LIFO
order and the library returns to a truly uninitialized state, ready
for a new init cycle.

:class:`SubsystemRegistry` implements the refcounts;
:class:`CleanupFramework` implements the callback stack.  Both are
per-simulated-process."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple


class CleanupError(RuntimeError):
    """Cleanup misuse (double-run, register after run, ...)."""


class CleanupFramework:
    """LIFO stack of cleanup callbacks for one init epoch."""

    __slots__ = ("_callbacks", "epochs_completed")

    def __init__(self) -> None:
        # (rows, *args), oldest first; rows = ((name, fn or None), ...)
        self._callbacks: List[tuple] = []
        self.epochs_completed = 0

    def register(self, name: str, fn: Optional[Callable[..., None]], *args) -> None:
        """``fn(*args)`` runs at teardown.  The stack holds plain data —
        flat tuples, no closure over the caller."""
        self.register_table(((name, fn),), *args)

    def register_table(self, rows: Tuple[Tuple[str, Optional[Callable]], ...],
                       *args) -> None:
        """One registration for a whole table of ``(name, fn)`` rows, torn
        down in row order by ``fn(*args)`` (``None``: nothing to run).
        Subsystems that always come up together share the table — every
        rank of every world holds the same one — instead of costing each
        rank a registration per subsystem."""
        self._callbacks.append((rows, *args))

    @property
    def pending(self) -> int:
        return sum(len(entry[0]) for entry in self._callbacks)

    def run_all(self) -> List[str]:
        """Run and clear every callback, newest first; returns the order."""
        order: List[str] = []
        while self._callbacks:
            rows, *args = self._callbacks.pop()
            for name, fn in rows:
                if fn is not None:
                    fn(*args)
                order.append(name)
        self.epochs_completed += 1
        return order


class SubsystemRegistry:
    """Reference-counted lazy subsystem initialization.

    ``acquire(name, init_fn, cleanup_fn, *args)``: on first acquisition
    run ``init_fn(*args)`` (which may be a sub-generator charging
    simulated time) and register ``cleanup_fn(*args)`` with the cleanup
    framework; subsequent acquisitions only bump the refcount.
    ``release(name)`` decrements; the actual teardown happens when the
    *framework* runs (i.e. at last-session-finalize), mirroring the
    prototype.

    A subsystem's record is ``[refcount, times initialized, cleanup epoch
    it was last initialized in]``: it is initialized from the moment it
    is marked so until the cleanup framework next runs, so teardown needs
    no callback into the registry.  ``names`` are subsystems that are
    always brought up, retained, released and torn down **together** (the
    MPI instance's): they share one record and one ``teardown`` table
    (``(name, cleanup_fn)`` rows, newest first, the same object for every
    rank): :meth:`mark_all_initialized` brings them up, and retaining or
    releasing any one of them does so for all.  Any other name gets a
    record of its own on first use.
    """

    __slots__ = ("cleanup", "_names", "_teardown", "_shared", "_own")

    def __init__(self, cleanup: CleanupFramework, names: Tuple[str, ...] = (),
                 teardown: Tuple[Tuple[str, Optional[Callable]], ...] = ()) -> None:
        self.cleanup = cleanup
        self._names = names
        self._teardown = teardown
        self._shared = [0, 0, -1]
        self._own: Optional[Dict[str, list]] = None

    def _live(self, name: str) -> Optional[list]:
        """The record of ``name`` if it is initialized now."""
        record = self._shared if name in self._names else (self._own or _NONE).get(name)
        if record is not None and record[2] == self.cleanup.epochs_completed:
            return record
        return None

    def refcount(self, name: str) -> int:
        record = self._live(name)
        return record[0] if record else 0

    def is_initialized(self, name: str) -> bool:
        return self._live(name) is not None

    @property
    def init_epochs(self) -> Dict[str, int]:
        """name -> times initialized ever (names never initialized are absent)."""
        epochs = {**dict.fromkeys(self._names, self._shared[1]),
                  **{name: record[1] for name, record in (self._own or _NONE).items()}}
        return {name: n for name, n in epochs.items() if n}

    @property
    def live_subsystems(self) -> List[str]:
        return sorted(name for name in (*self._names, *(self._own or ()))
                      if self.refcount(name) > 0)

    def all_released(self) -> bool:
        return not self.live_subsystems

    def acquire(self, name: str, init_fn: Optional[Callable] = None,
                cleanup_fn: Optional[Callable[..., None]] = None, *args):
        """Sub-generator: initialize-or-retain subsystem ``name``.

        A subsystem whose refcount dropped to zero but whose cleanup has
        not yet run (the framework only fires at last-session-finalize)
        is still initialized and is *not* re-initialized here.
        """
        if not self.is_initialized(name):
            if init_fn is not None:
                result = init_fn(*args)
                if result is not None and hasattr(result, "__next__"):
                    yield from result
            self.mark_initialized(name, cleanup_fn, *args)
        self.retain(name)
        return
        yield  # pragma: no cover - makes this a generator even on fast path

    def _born(self, record: list) -> None:
        record[:] = 0, record[1] + 1, self.cleanup.epochs_completed

    def mark_initialized(self, name: str,
                         cleanup_fn: Optional[Callable[..., None]] = None,
                         *args) -> None:
        """Bookkeeping half of :meth:`acquire`, for callers that already
        ran the init work themselves: record the init epoch and register
        the teardown (which runs ``cleanup_fn(*args)``)."""
        if name in self._names:
            raise CleanupError(f"{name!r} comes up with {self._names}, not alone")
        if self._own is None:
            self._own = {}
        self._born(self._own.setdefault(name, [0, 0, -1]))
        self.cleanup.register(name, cleanup_fn, *args)

    def mark_all_initialized(self, *args) -> None:
        """The same for all of ``names`` at once, the caller having run
        the init work of each: one registration of the shared teardown
        table (its functions run as ``fn(*args)``)."""
        self._born(self._shared)
        self.cleanup.register_table(self._teardown, *args)

    def retain(self, name: str) -> None:
        """Bump the refcount of an already-initialized subsystem — of all
        of ``names`` when it is one of them."""
        record = self._live(name)
        if record is None:
            raise CleanupError(f"retain of uninitialized subsystem {name!r}")
        record[0] += 1

    def release(self, name: str) -> None:
        record = self._live(name)
        if record is None or record[0] <= 0:
            raise CleanupError(f"release of unacquired subsystem {name!r}")
        record[0] -= 1


_NONE: Dict[str, list] = {}
