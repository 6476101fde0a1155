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
        self._callbacks: List[tuple] = []     # (name, fn, *args), oldest first
        self.epochs_completed = 0

    def register(self, name: str, fn: Callable[..., None], *args) -> None:
        """``fn(*args)`` runs at teardown.  The stack holds plain data —
        one flat tuple per registration, no closure over the caller."""
        self._callbacks.append((name, fn, *args))

    @property
    def pending(self) -> int:
        return len(self._callbacks)

    def run_all(self) -> List[str]:
        """Run and clear every callback, newest first; returns the order."""
        order: List[str] = []
        while self._callbacks:
            name, fn, *args = self._callbacks.pop()
            fn(*args)
            order.append(name)
        self.epochs_completed += 1
        return order


_COLD = -1      # refcount of a subsystem that is not initialized


class SubsystemRegistry:
    """Reference-counted lazy subsystem initialization.

    ``acquire(name, init_fn, cleanup_fn, *args)``: on first acquisition
    run ``init_fn(*args)`` (which may be a sub-generator charging
    simulated time) and register ``cleanup_fn(*args)`` with the cleanup
    framework; subsequent acquisitions only bump the refcount.
    ``release(name)`` decrements; the actual teardown happens when the
    *framework* runs (i.e. at last-session-finalize), mirroring the
    prototype.

    State is one small table indexed by subsystem: ``names`` (a tuple
    every rank of a world shares) gives the slot, and per slot this
    registry keeps a refcount (``_COLD`` while not initialized) and the
    number of times the subsystem was ever initialized.  A name outside
    ``names`` gets a slot on first use.
    """

    __slots__ = ("cleanup", "_names", "_refcounts", "_epochs")

    def __init__(self, cleanup: CleanupFramework, names: Tuple[str, ...] = ()) -> None:
        self.cleanup = cleanup
        self._names = names
        self._refcounts = [_COLD] * len(names)
        self._epochs = [0] * len(names)

    def refcount(self, name: str) -> int:
        names = self._names
        return max(self._refcounts[names.index(name)], 0) if name in names else 0

    def is_initialized(self, name: str) -> bool:
        names = self._names
        return name in names and self._refcounts[names.index(name)] != _COLD

    @property
    def init_epochs(self) -> Dict[str, int]:
        """name -> times initialized ever (names never initialized are absent)."""
        return {n: e for n, e in zip(self._names, self._epochs) if e}

    @property
    def live_subsystems(self) -> List[str]:
        return sorted(n for n, c in zip(self._names, self._refcounts) if c > 0)

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

    def mark_initialized(self, name: str,
                         cleanup_fn: Optional[Callable[..., None]] = None,
                         *args) -> None:
        """Bookkeeping half of :meth:`acquire`, for callers that already
        ran the init work themselves (the fused-sleep fast path in
        :mod:`repro.ompi.instance`): record the init epoch and register
        the teardown (which runs ``cleanup_fn(*args)``)."""
        if name not in self._names:
            self._names += (name,)      # a new tuple: the shared one is untouched
            self._refcounts.append(_COLD)
            self._epochs.append(0)
        slot = self._names.index(name)
        self._refcounts[slot] = 0
        self._epochs[slot] += 1
        # The plain function plus ``self`` as data: a bound method would
        # be one more object per subsystem per rank.
        self.cleanup.register(name, SubsystemRegistry._teardown, self, slot,
                              cleanup_fn, *args)

    def _teardown(self, slot: int, cleanup_fn: Optional[Callable[..., None]],
                  *args) -> None:
        self._refcounts[slot] = _COLD
        if cleanup_fn is not None:
            cleanup_fn(*args)

    def retain(self, name: str) -> None:
        """Bump the refcount of an already-initialized subsystem."""
        names, counts = self._names, self._refcounts
        if name not in names or counts[names.index(name)] == _COLD:
            raise CleanupError(f"retain of uninitialized subsystem {name!r}")
        counts[names.index(name)] += 1

    def release(self, name: str) -> None:
        names, counts = self._names, self._refcounts
        if name not in names or counts[names.index(name)] <= 0:
            raise CleanupError(f"release of unacquired subsystem {name!r}")
        counts[names.index(name)] -= 1

    def all_released(self) -> bool:
        return all(c <= 0 for c in self._refcounts)
