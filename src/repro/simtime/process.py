"""Generator-based simulated processes.

A simulated process is a Python generator that ``yield``-s *effect*
objects; the trampoline in :class:`SimProcess` interprets each effect
against the :class:`~repro.simtime.engine.Engine`.  Sub-routines compose
with ``yield from`` and return values with ``return``:

    def worker(env):
        yield Sleep(1e-6)              # advance simulated time
        value = yield Wait(event)      # block on an event
        child = yield Spawn(other())   # start a concurrent process
        result = yield Join(child)     # wait for it and get its result
        return result

Unhandled exceptions in a process abort the whole simulation run unless
another process ``Join``-s it (or :meth:`SimProcess.defuse` is called),
in which case the exception is re-raised at the join site.  This makes
protocol bugs fail loudly while still supporting deliberate failure
injection in the fault-tolerance demos.

The trampoline dispatches on the effect's exact class (``Sleep`` and
``Wait`` first — they dominate every workload), resumes via pre-bound
methods instead of per-suspension lambdas, and lands zero-delay
resumptions on the engine's ready lane (docs/performance.md).  The
module-level :data:`NOW`, :data:`SELF` and :data:`SLEEP0` singletons
exist so hot call sites can yield a shared effect object instead of
allocating one per suspension.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Any, Generator, Optional

from repro.simtime.engine import Engine, SimulationError
from repro.simtime.primitives import SimEvent


class ProcessKilled(Exception):
    """Thrown into a generator when its process is killed (fault injection)."""


class SimTimeout(SimulationError):
    """Raised by ``Wait(event, timeout=...)`` when the timeout expires first."""


class Sleep:
    """Effect: suspend the process for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        self.delay = float(delay)


class SleepUntil:
    """Effect: suspend until absolute simulated time ``t``.

    ``extra`` logical events are charged to the engine when the process
    resumes: a fused sleep chain (N consecutive ``Sleep`` effects with no
    externally observable work between them, collapsed into one
    suspension) stands for ``extra + 1`` events, and the determinism
    contract counts logical events (docs/performance.md).  ``t`` must be
    computed by replaying the chain's exact float additions, so resume
    timestamps stay byte-identical.  If the process is killed before
    ``t`` nothing is charged — as for a chain killed before its first
    sleep fires.
    """

    __slots__ = ("t", "extra")

    def __init__(self, t: float, extra: int = 0) -> None:
        self.t = t
        self.extra = extra


class Wait:
    """Effect: block until ``event`` triggers; evaluates to its value.

    With ``timeout`` set, raises :class:`SimTimeout` if the event has not
    triggered within that many simulated seconds.
    """

    __slots__ = ("event", "timeout")

    def __init__(self, event: SimEvent, timeout: Optional[float] = None) -> None:
        self.event = event
        self.timeout = timeout


class Spawn:
    """Effect: start ``gen`` as a new concurrent process; evaluates to it."""

    __slots__ = ("gen", "name")

    def __init__(self, gen: Generator, name: str = "") -> None:
        self.gen = gen
        self.name = name


class Join:
    """Effect: wait for ``proc`` to terminate; evaluates to its result.

    Re-raises the process's exception if it failed.
    """

    __slots__ = ("proc",)

    def __init__(self, proc: "SimProcess") -> None:
        self.proc = proc


class Now:
    """Effect: evaluates to the current simulated time (no suspension)."""

    __slots__ = ()


class Self:
    """Effect: evaluates to the currently running :class:`SimProcess`."""

    __slots__ = ()


#: Reusable effect singletons — ``Now``/``Self`` are stateless and
#: ``Sleep(0)`` is immutable in practice, so hot loops can yield these
#: shared instances instead of allocating a fresh effect per suspension.
NOW = Now()
SELF = Self()
SLEEP0 = Sleep(0.0)


def _nothing() -> Generator:
    yield  # pragma: no cover


#: What a finished process holds in place of its generator: closed like
#: the one it replaces, so a stale resume stays the no-op it was.
_FINISHED_GEN = _nothing()
_FINISHED_GEN.close()


class SimProcess:
    """A generator being trampolined by the engine."""

    __slots__ = (
        "engine",
        "gen",
        "name",
        "done",
        "result",
        "exception",
        "_defused",
        "_finished",
        "_pending_timer",
        "_pending_event",
        "_resume_cb",
        "_event_cb",
        "_waiting_on",
        "obs_span",
    )

    def __init__(self, engine: Engine, gen: Generator, name: str = "") -> None:
        self.engine = engine
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "proc")
        self.done = SimEvent()
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._defused = False
        self._finished = False
        self._pending_timer = None     # engine queue entry (list) or Timer
        self._pending_event: Optional[SimEvent] = None
        # Pre-bound resume callbacks: one allocation per process instead
        # of one closure per suspension.  The plain resume is a C-level
        # partial — no Python frame between the engine and _step.
        self._resume_cb = partial(self._step, None, None)
        self._event_cb = self._event_resume
        self._waiting_on: Optional[SimEvent] = None
        self.obs_span = 0              # lifetime span id (set by spawners)
        engine._process_started(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self._finished else "running"
        return f"<SimProcess {self.name} {state}>"

    @property
    def finished(self) -> bool:
        return self._finished

    def defuse(self) -> None:
        """Mark this process's failure as handled (suppresses fail-fast)."""
        self._defused = True

    def start(self) -> None:
        """Schedule the first step of the generator at the current time."""
        self.engine._sched_soon(self._resume_cb)

    def kill(self, reason: str = "") -> None:
        """Throw :class:`ProcessKilled` into the process (fault injection).

        A killed process may catch the exception to clean up; if it does
        not, the kill is treated as handled (it does not abort the run).
        """
        if self._finished:
            return
        pending = self._pending_timer
        if pending is not None:
            if pending.__class__ is list:
                self.engine._cancel_entry(pending)
            else:
                pending.cancel()
            self._pending_timer = None
        if self._waiting_on is not None:
            self._waiting_on.discard_waiter(self._step)
            self._waiting_on = None
        self._defused = True
        self._step(None, ProcessKilled(reason))

    # -- resume callbacks (pre-bound, no per-suspension closures) ---------
    def _event_resume(self) -> None:
        event = self._pending_event
        self._pending_event = None
        if event is None:
            return
        if event.exception is not None:
            self._step(None, event.exception)
        else:
            self._step(event.value, None)

    # -- trampoline -------------------------------------------------------
    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        self._pending_timer = None
        self._waiting_on = None
        engine = self.engine
        gen = self.gen
        send = gen.send
        try:
            while True:
                if exc is not None:
                    pending, exc = exc, None
                    effect = gen.throw(pending)
                else:
                    effect = send(value)
                value = None

                # Exact-class dispatch, hottest effects first.  Nothing
                # subclasses an effect: any other object is an error.
                cls = effect.__class__
                if cls is Sleep:
                    # Inlined scheduling: the lane choice is direct.
                    delay = effect.delay
                    engine._seq = seq = engine._seq + 1
                    if delay == 0.0:
                        entry = [engine.now, seq, self._resume_cb]
                        engine._ready.append(entry)
                    else:
                        if not delay > 0:
                            raise SimulationError(f"negative delay: {delay}")
                        entry = [engine.now + delay, seq, self._resume_cb]
                        heappush(engine._queue, entry)
                    self._pending_timer = entry
                    return
                if cls is Wait:
                    event = effect.event
                    if event.triggered:
                        # The resume is scheduled (not run inline) and is
                        # deliberately not cancel-tracked: a kill() before
                        # it fires leaves the event queued, and the event
                        # counts the corpus pins include it.
                        self._pending_event = event
                        engine._seq = seq = engine._seq + 1
                        engine._ready.append([engine.now, seq, self._event_cb])
                    elif effect.timeout is None:
                        self._waiting_on = event
                        event.add_waiter(self._step)
                    else:
                        self._do_timed_wait(event, effect.timeout)
                    return
                if cls is SleepUntil:
                    t = effect.t
                    if not t >= engine.now:
                        raise SimulationError(
                            f"cannot sleep until the past ({t} < {engine.now})"
                        )
                    extra = effect.extra
                    cb = (partial(self._charged_resume, extra) if extra
                          else self._resume_cb)
                    engine._seq = seq = engine._seq + 1
                    entry = [t, seq, cb]
                    if t == engine.now:
                        engine._ready.append(entry)
                    else:
                        heappush(engine._queue, entry)
                    self._pending_timer = entry
                    return
                if cls is Now:
                    value = engine.now
                elif cls is Self:
                    value = self
                elif cls is Spawn:
                    child = SimProcess(engine, effect.gen, effect.name)
                    child.start()
                    value = child
                elif cls is Join:
                    self._do_join(effect.proc)
                    return
                else:
                    raise SimulationError(
                        f"process {self.name!r} yielded non-effect {effect!r}"
                    )
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None), None)
        except ProcessKilled as killed:
            self._finish(None, killed)
        except BaseException as err:  # noqa: BLE001 - deliberate fail-fast
            self._finish(None, err)

    def _charged_resume(self, extra: int) -> None:
        self.engine.events_executed += extra
        self._step(None, None)

    def _do_timed_wait(self, event: SimEvent, timeout: float) -> None:
        """Arm both the (untriggered) event and a timer; first wins."""
        fired = [False]

        def on_event(value: Any, exc: Optional[BaseException]) -> None:
            if fired[0]:
                return
            fired[0] = True
            timer.cancel()
            self._step(value, exc)

        def on_timeout() -> None:
            if fired[0]:
                return
            fired[0] = True
            event.discard_waiter(on_event)
            self._step(None, SimTimeout(f"wait timed out after {timeout}s"))

        event.add_waiter(on_event)
        timer = self.engine.call_later(timeout, on_timeout)

    def _do_join(self, proc: "SimProcess") -> None:
        proc.defuse()
        if proc._finished:
            if proc.exception is not None:
                exc = proc.exception
                self.engine.post_at(self.engine.now, lambda: self._step(None, exc))
            else:
                res = proc.result
                self.engine.post_at(self.engine.now, lambda: self._step(res, None))
            return
        self._waiting_on = proc.done
        proc.done.add_waiter(self._step)

    def _finish(self, result: Any, exc: Optional[BaseException]) -> None:
        if self._finished:
            return
        self._finished = True
        self.result = result
        self.exception = exc
        if self.obs_span:
            self.engine.tracer.end(self.engine.now, self.obs_span)
        self.engine._process_finished(self)
        self.gen.close()
        # A finished process is a result, not a program: it lets go of
        # its generator and of the pre-bound callbacks that point back at
        # it, so whoever holds the process holds no cycle.
        self.gen = _FINISHED_GEN
        self._resume_cb = self._event_cb = self._pending_timer = None
        if exc is not None:
            if self.done.has_waiters or self._defused:
                self.done.fail(exc)
            else:
                # Fail fast: nobody is watching this process, so surface
                # the error through the engine's run loop immediately.
                raise exc
        else:
            self.done.succeed(result)
