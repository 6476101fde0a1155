"""Event loop and simulated clock.

The engine owns a priority queue of timestamped callbacks.  Ties are
broken by a monotonically increasing sequence number so that events
scheduled earlier fire earlier — the FIFO tie-break is part of the
simulator's determinism contract and is exercised by the property tests.

A same-timestamp FIFO *ready lane* (a deque) sits next to the heap
(docs/performance.md): an event scheduled for the current instant — the
zero-delay chains of message-delivery cascades — skips the heap.  A heap
entry at time T can only have been pushed while ``now < T`` and a ready
entry at T only appended while ``now == T``, so draining the heap's due
entries first, then the ready lane, is exactly the ``(time, seq)``
order of a plain heap.

Canceled timers are lazily deleted (cancel is O(1)); a cancellation
counter triggers an in-place compaction of the heap once canceled
entries outnumber live ones, so pathological cancel-heavy workloads
(e.g. per-message retransmission timers that are almost always acked)
cannot accumulate O(n) dead entries.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from repro.simtime.trace import NULL_TRACER

#: Compaction is considered once at least this many canceled entries
#: are pending — below it the heap is too small for the sweep to matter.
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation core."""


class DeadlockError(SimulationError):
    """Raised by :meth:`Engine.run` when live processes remain but no
    event is scheduled — every remaining process is blocked forever."""


class _Canceled:
    """Sentinel stored in place of a callback when a timer is canceled."""

    __slots__ = ()


_CANCELED = _Canceled()


class Timer:
    """Handle returned by :meth:`Engine.call_at` / :meth:`Engine.call_later`.

    Canceling a timer is O(1): the heap entry is left in place and skipped
    when popped.  The engine counts pending cancellations and compacts
    the heap when they exceed the live entries (see :meth:`Engine._compact`).
    """

    __slots__ = ("_entry", "_engine")

    def __init__(self, entry: list, engine: "Engine") -> None:
        self._entry = entry
        self._engine = engine

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def canceled(self) -> bool:
        return self._entry[2] is _CANCELED

    def cancel(self) -> None:
        self._engine._cancel_entry(self._entry)


class Engine:
    """Discrete-event scheduler with a float clock (seconds).

    The engine knows nothing about processes; :mod:`repro.simtime.process`
    layers generator-trampolining on top of :meth:`call_at`.  Callers
    that keep the returned :class:`Timer` (to cancel it) use
    ``call_at``/``call_later``; everything else posts with :meth:`post_at`.
    Past-time checks read ``not when >= now`` so that NaN fails them too.
    """

    def __init__(self) -> None:
        self.now: float = 0.0             # simulated seconds; the run loop writes it
        self._queue: list = []
        self._ready: deque = deque()      # entries due at exactly now
        self._seq = 0
        self._ncanceled = 0               # canceled entries still queued
        self._live: set = set()
        self._running = False
        # Observability hooks.  Every layer reaches tracing/metrics via
        # its existing engine reference; the Cluster swaps in real
        # instances when the user asks for them.  The null defaults keep
        # the instrumented hot paths at one branch per emission.
        self.tracer = NULL_TRACER
        self.metrics = None                # repro.obs.metrics.MetricsRegistry
        self.events_executed = 0

    # -- scheduling -------------------------------------------------------
    def _sched(self, when: float, fn: Callable[[], Any]) -> list:
        """Queue ``fn`` at ``when`` (assumed >= now); returns the entry."""
        self._seq = seq = self._seq + 1
        entry = [when, seq, fn]
        if when == self.now:
            self._ready.append(entry)
        else:
            heapq.heappush(self._queue, entry)
        return entry

    def _sched_soon(self, fn: Callable[[], Any]) -> list:
        """Queue ``fn`` at the current instant (on the ready lane)."""
        self._seq = seq = self._seq + 1
        entry = [self.now, seq, fn]
        self._ready.append(entry)
        return entry

    def call_at(self, when: float, fn: Callable[[], Any]) -> Timer:
        """Schedule ``fn()`` to run at absolute simulated time ``when``."""
        if not when >= self.now:
            raise SimulationError(
                f"cannot schedule event in the past ({when} < {self.now})"
            )
        return Timer(self._sched(when, fn), self)

    def post_at(self, when: float, fn: Callable[[], Any]) -> None:
        """:meth:`call_at` for fire-and-forget events: same past-time
        check, same ``(time, seq)`` position, same lane — no
        :class:`Timer`, so the event cannot be canceled.  The per-message
        sites (packet delivery, match completion, RML hops) use this;
        ``_sched`` is repeated inline to keep them at one frame."""
        if not when >= self.now:
            raise SimulationError(
                f"cannot schedule event in the past ({when} < {self.now})"
            )
        self._seq = seq = self._seq + 1
        if when == self.now:
            self._ready.append([when, seq, fn])
        else:
            heapq.heappush(self._queue, [when, seq, fn])

    def call_later(self, delay: float, fn: Callable[[], Any]) -> Timer:
        """Schedule ``fn()`` to run ``delay`` simulated seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"negative delay: {delay}")
        return Timer(self._sched(self.now + delay, fn), self)

    def call_soon(self, fn: Callable[[], Any]) -> Timer:
        """Schedule ``fn()`` at the current instant, after everything
        already queued for it (equivalent to ``call_later(0, fn)``)."""
        return Timer(self._sched_soon(fn), self)

    # -- logical-event batching (docs/performance.md) ---------------------
    def charge_events(self, extra: int) -> None:
        """Account for ``extra`` logical events executed inside one
        physical callback.

        The determinism contract counts *logical* events: a batch that
        folds N same-instant callbacks into one scheduled delivery must
        still report N executed events, so digests and the event counts
        the frozen-bytes corpus pins stay exact."""
        self.events_executed += extra

    def call_at_batch(self, when: float, fns: list) -> None:
        """Schedule ``fns`` at ``when`` as consecutive events.

        The whole batch is ONE physical entry that runs the callbacks
        back-to-back and charges the extra logical events.  A loop of
        :meth:`call_at` would hand them consecutive sequence numbers, so
        nothing could interleave between them: the batch fires in the
        same order, at the same clock and with the same
        ``events_executed`` as that loop.

        Only for fire-and-forget deliveries: batch entries cannot be
        individually canceled.
        """
        if not when >= self.now:
            raise SimulationError(
                f"cannot schedule event in the past ({when} < {self.now})"
            )
        if len(fns) <= 1:
            for fn in fns:
                self._sched(when, fn)
            return
        extra = len(fns) - 1

        def run_batch() -> None:
            self.events_executed += extra
            for fn in fns:
                fn()

        self._sched(when, run_batch)

    # -- lazy deletion ----------------------------------------------------
    def _cancel_entry(self, entry: list) -> None:
        if entry[2] is _CANCELED:
            return
        entry[2] = _CANCELED
        self._ncanceled = n = self._ncanceled + 1
        if n >= _COMPACT_MIN and n * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Sweep canceled entries out of the heap, in place.

        In-place (slice assignment) so the run loop's local alias of the
        queue stays valid when a callback's cancel triggers compaction
        mid-run.  Ready-lane entries are not swept — they drain within
        the current instant anyway."""
        q = self._queue
        live = [e for e in q if e[2] is not _CANCELED]
        self._ncanceled -= len(q) - len(live)
        q[:] = live
        heapq.heapify(q)

    # -- process accounting (used for deadlock detection) ----------------
    def _process_started(self, proc=None) -> None:
        self._live.add(proc)

    def _process_finished(self, proc=None) -> None:
        self._live.discard(proc)

    @property
    def live_processes(self) -> int:
        """Number of spawned processes that have not yet terminated."""
        return len(self._live)

    # -- run loop ---------------------------------------------------------
    def run(self, until: Optional[float] = None, *, detect_deadlock: bool = True) -> float:
        """Run events until the queue drains or ``until`` is reached.

        Returns the simulated time at which the run stopped.  Events
        scheduled at exactly ``until`` do fire; the clock never moves
        backwards (``run(until=t)`` with ``t < now`` is a no-op).  If
        ``detect_deadlock`` is set and live processes remain once the
        queue drains, a :class:`DeadlockError` is raised with the count
        of blocked processes — the most common failure mode of an MPI
        protocol bug (e.g. a rank waiting on a message never sent).
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        if until is not None and until < self.now:
            # A horizon in the past runs nothing: events pending at the
            # current instant are strictly later than ``until``.
            return self.now
        self._running = True
        try:
            # The hot loop: locals for the queues and the heappop, one
            # branch to pick the lane, no per-event method call.
            ready = self._ready
            q = self._queue
            heappop = heapq.heappop
            while True:
                if ready and (not q or q[0][0] > self.now):
                    fn = ready.popleft()[2]
                    if fn is _CANCELED:
                        self._ncanceled -= 1
                        continue
                elif q:
                    when = q[0][0]
                    if until is not None and when > until:
                        if until > self.now:
                            self.now = until
                        return self.now
                    fn = heappop(q)[2]
                    if fn is _CANCELED:
                        self._ncanceled -= 1
                        continue
                    self.now = when
                else:
                    break
                self.events_executed += 1
                fn()
            if until is not None and until > self.now:
                self.now = until
            if detect_deadlock and self._live and until is None:
                names = sorted(getattr(p, "name", "?") for p in self._live)
                shown = ", ".join(names[:10]) + (" …" if len(names) > 10 else "")
                raise DeadlockError(
                    f"simulation deadlock: {len(self._live)} process(es) "
                    f"blocked forever at t={self.now}: {shown}"
                )
            return self.now
        finally:
            self._running = False

    # -- window-bounded execution (repro.dsim; docs/performance.md) -------
    def peek_next_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if the queue is
        empty.

        Canceled heap heads are popped on the way (they would otherwise
        report phantom wake-ups to the :mod:`repro.dsim` coordinator and
        cost a synchronization round each).  Safe to call only between
        runs, never from inside a callback.
        """
        if self._ready:
            for entry in self._ready:
                if entry[2] is not _CANCELED:
                    return self.now
        q = self._queue
        while q:
            if q[0][2] is _CANCELED:
                heapq.heappop(q)
                self._ncanceled -= 1
                continue
            return q[0][0]
        return None

    def run_window(self, end: float) -> float:
        """Run every event scheduled strictly *before* ``end``.

        The conservative-window primitive of :mod:`repro.dsim`: a
        partition may execute up to (but excluding) the window edge
        without synchronizing, because the lookahead guarantees no
        cross-partition message can arrive earlier than the edge.  Unlike
        :meth:`run`, the clock is *not* advanced to ``end`` — it stays at
        the last executed event so the final ``now`` of a partitioned
        run equals the single-process reference.  Deadlock detection is
        the coordinator's job (a partition cannot distinguish "blocked
        forever" from "waiting on a remote message").

        Returns the simulated time of the last executed event.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        try:
            ready = self._ready
            q = self._queue
            heappop = heapq.heappop
            while True:
                if ready and (not q or q[0][0] > self.now):
                    fn = ready.popleft()[2]
                    if fn is _CANCELED:
                        self._ncanceled -= 1
                        continue
                elif q:
                    when = q[0][0]
                    if when >= end:
                        return self.now
                    fn = heappop(q)[2]
                    if fn is _CANCELED:
                        self._ncanceled -= 1
                        continue
                    self.now = when
                else:
                    return self.now
                self.events_executed += 1
                fn()
        finally:
            self._running = False
