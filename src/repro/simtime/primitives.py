"""Synchronization primitives for simulated processes.

These are *simulation-level* primitives used to build the middleware
stack; they are distinct from the MPI-level objects (``MPI_Barrier``
etc.) implemented on top of the simulated transport.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional


class SimEvent:
    """One-shot event carrying a value or an exception.

    Waiters are callbacks ``cb(value, exception)`` registered by the
    process trampoline; they run synchronously, in registration order,
    when the event triggers.  Almost every event has at most one waiter,
    so ``_waiters`` is ``None``, the one callback, or a list of them —
    no container is allocated until a second waiter registers.
    """

    __slots__ = ("_waiters", "triggered", "value", "exception")

    def __init__(self) -> None:
        self._waiters: Any = None
        self.triggered = False
        self.value: Any = None
        self.exception: Optional[BaseException] = None

    @property
    def has_waiters(self) -> bool:
        waiters = self._waiters
        if waiters.__class__ is list:
            return bool(waiters)
        return waiters is not None

    def add_waiter(self, cb: Callable[[Any, Optional[BaseException]], None]) -> None:
        if self.triggered:
            cb(self.value, self.exception)
            return
        waiters = self._waiters
        if waiters is None:
            self._waiters = cb
        elif waiters.__class__ is list:
            waiters.append(cb)
        else:
            self._waiters = [waiters, cb]

    def discard_waiter(self, cb: Callable) -> None:
        # Equality, not identity: bound methods are re-created per access.
        waiters = self._waiters
        if waiters.__class__ is list:
            try:
                waiters.remove(cb)
            except ValueError:
                pass
        elif waiters == cb:
            self._waiters = None

    def succeed(self, value: Any = None) -> None:
        """Trigger the event with ``value``; wakes all waiters in order."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        # Detach first: a waiter that registers or discards from inside
        # its callback acts on the (already triggered) event, never on
        # the batch being woken.
        waiters, self._waiters = self._waiters, None
        if waiters.__class__ is list:
            for cb in waiters:
                cb(value, None)
        elif waiters is not None:
            waiters(value, None)

    def fail(self, exc: BaseException) -> None:
        """Trigger the event with an exception; waiters re-raise it."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.exception = exc
        waiters, self._waiters = self._waiters, None
        if waiters.__class__ is list:
            for cb in waiters:
                cb(None, exc)
        elif waiters is not None:
            waiters(None, exc)


class Mailbox:
    """Unbounded FIFO channel between simulated processes.

    ``put`` never blocks; ``get`` is a sub-generator to be used as
    ``item = yield from mbox.get()``.
    """

    __slots__ = ("_items", "_waiters")

    def __init__(self) -> None:
        self._items: deque = deque()
        self._waiters: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        while self._waiters:
            ev = self._waiters.popleft()
            if not ev.triggered:
                ev.succeed(item)
                return
        self._items.append(item)

    def get(self):
        """Sub-generator: receive the next item, blocking if empty."""
        from repro.simtime.process import Wait

        if self._items:
            return self._items.popleft()
        ev = SimEvent()
        self._waiters.append(ev)
        item = yield Wait(ev)
        return item

    def get_nowait(self) -> Any:
        """Pop the next item immediately; raises IndexError if empty."""
        return self._items.popleft()


class Semaphore:
    """Counting semaphore with FIFO wakeup."""

    __slots__ = ("_count", "_waiters")

    def __init__(self, value: int = 1) -> None:
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self._count = value
        self._waiters: deque = deque()

    @property
    def value(self) -> int:
        return self._count

    def acquire(self):
        """Sub-generator: ``yield from sem.acquire()``."""
        from repro.simtime.process import Wait

        if self._count > 0 and not self._waiters:
            self._count -= 1
            return
        ev = SimEvent()
        self._waiters.append(ev)
        yield Wait(ev)

    def release(self) -> None:
        while self._waiters:
            ev = self._waiters.popleft()
            if not ev.triggered:
                ev.succeed(None)
                return
        self._count += 1


class SimBarrier:
    """Reusable barrier over a fixed number of simulated processes."""

    __slots__ = ("_parties", "_count", "_event", "generation")

    def __init__(self, parties: int) -> None:
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self._parties = parties
        self._count = 0
        self._event = SimEvent()
        self.generation = 0

    @property
    def parties(self) -> int:
        return self._parties

    def wait(self):
        """Sub-generator: block until all parties have arrived."""
        from repro.simtime.process import Wait

        self._count += 1
        if self._count == self._parties:
            event = self._event
            self._event = SimEvent()
            self._count = 0
            self.generation += 1
            event.succeed(self.generation)
            return self.generation
        gen = yield Wait(self._event)
        return gen

