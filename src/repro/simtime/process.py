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

Two trampoline implementations share these semantics
(docs/performance.md):

* the **fast path** (default) dispatches on the effect's exact class
  (``Sleep`` and ``Wait`` first — they dominate every workload), resumes
  via pre-bound methods instead of per-suspension lambdas, and lands
  zero-delay resumptions on the engine's ready lane; and
* the **reference path**, selected by ``Engine(compat=True)``: the
  original isinstance-chain interpreter scheduling through closures on
  the pure heap.

Both produce identical event orderings — the golden-trace equivalence
tests prove it.  The module-level :data:`NOW`, :data:`SELF` and
:data:`SLEEP0` singletons exist so hot call sites can yield a shared
effect object instead of allocating one per suspension.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Any, Generator, Iterable, Optional

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
    suspension) stands for ``extra + 1`` reference events, and the
    determinism contract counts logical events (docs/performance.md).
    ``t`` must be computed by replaying the reference's exact float
    additions, so resume timestamps stay byte-identical.  If the process
    is killed before ``t`` nothing is charged — matching a reference
    chain canceled before its first sleep fires.
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


class WaitAny:
    """Effect: block until any of ``events`` triggers.

    Evaluates to ``(index, value)`` of the first event to fire.  Events
    already triggered are served immediately (lowest index wins).
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[SimEvent]) -> None:
        self.events = list(events)


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
        if self.engine.compat:
            return self._step_reference(value, exc)
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

                # Exact-class dispatch, hottest effects first.  Effect
                # subclasses (rare) fall through to the reference
                # interpreter's isinstance chain below.
                cls = effect.__class__
                if cls is Sleep:
                    # Inlined scheduling: the engine's compat flag is
                    # known False here, so the lane choice is direct.
                    delay = effect.delay
                    engine._seq = seq = engine._seq + 1
                    if delay == 0.0:
                        entry = [engine.now, seq, self._resume_cb]
                        engine._ready.append(entry)
                    else:
                        if delay < 0:
                            raise SimulationError(f"negative delay: {delay}")
                        entry = [engine.now + delay, seq, self._resume_cb]
                        heappush(engine._queue, entry)
                    self._pending_timer = entry
                    return
                if cls is Wait:
                    if effect.timeout is not None:
                        self._do_wait(effect)
                        return
                    event = effect.event
                    if event.triggered:
                        # Mirrors the reference path: the resume is
                        # scheduled (not run inline) and is deliberately
                        # not cancel-tracked, so kill() interleavings
                        # execute the same engine events in both modes.
                        self._pending_event = event
                        engine._seq = seq = engine._seq + 1
                        engine._ready.append([engine.now, seq, self._event_cb])
                    else:
                        self._waiting_on = event
                        event.add_waiter(self._step)
                    return
                if cls is SleepUntil:
                    t = effect.t
                    if t < engine.now:
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
                elif cls is WaitAny:
                    self._do_wait_any(effect)
                    return
                elif isinstance(effect, Now):
                    value = engine.now
                elif isinstance(effect, Self):
                    value = self
                elif isinstance(effect, Spawn):
                    child = SimProcess(engine, effect.gen, effect.name)
                    child.start()
                    value = child
                elif isinstance(effect, Sleep):
                    self._pending_timer = self.engine.call_later(
                        effect.delay, lambda: self._step(None, None)
                    )
                    return
                elif isinstance(effect, SleepUntil):
                    self._do_sleep_until(effect)
                    return
                elif isinstance(effect, Wait):
                    self._do_wait(effect)
                    return
                elif isinstance(effect, WaitAny):
                    self._do_wait_any(effect)
                    return
                elif isinstance(effect, Join):
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

    def _step_reference(self, value: Any, exc: Optional[BaseException]) -> None:
        """The original interpreter (``Engine(compat=True)``): isinstance
        chain plus per-suspension closures through the public heap API.
        Kept verbatim as the behavioral reference for the fast path."""
        self._pending_timer = None
        self._waiting_on = None
        try:
            while True:
                if exc is not None:
                    pending, exc = exc, None
                    effect = self.gen.throw(pending)
                else:
                    effect = self.gen.send(value)
                value = None

                if isinstance(effect, Now):
                    value = self.engine.now
                elif isinstance(effect, Self):
                    value = self
                elif isinstance(effect, Spawn):
                    child = SimProcess(self.engine, effect.gen, effect.name)
                    child.start()
                    value = child
                elif isinstance(effect, Sleep):
                    self._pending_timer = self.engine.call_later(
                        effect.delay, lambda: self._step(None, None)
                    )
                    return
                elif isinstance(effect, SleepUntil):
                    self._do_sleep_until(effect)
                    return
                elif isinstance(effect, Wait):
                    self._do_wait(effect)
                    return
                elif isinstance(effect, WaitAny):
                    self._do_wait_any(effect)
                    return
                elif isinstance(effect, Join):
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

    def _do_sleep_until(self, effect: SleepUntil) -> None:
        """SleepUntil via the public heap API (reference / fallback path).

        Charges the fused logical events on resume in this mode too, so
        the effect means the same thing under either trampoline."""
        extra = effect.extra
        cb = partial(self._charged_resume, extra) if extra else self._resume_cb
        self._pending_timer = self.engine.call_at(effect.t, cb)

    def _do_wait(self, effect: Wait) -> None:
        event = effect.event
        if event.triggered:
            self.engine.post_at(
                self.engine.now,
                lambda: self._step_event_result(event),
            )
            return
        if effect.timeout is None:
            self._waiting_on = event
            event.add_waiter(self._step)
            return
        # Timed wait: arm both the event and a timer; first wins.
        fired = [False]

        def on_event(value: Any, exc: Optional[BaseException]) -> None:
            if fired[0]:
                return
            fired[0] = True
            if timer is not None:
                timer.cancel()
            self._step(value, exc)

        def on_timeout() -> None:
            if fired[0]:
                return
            fired[0] = True
            event.discard_waiter(on_event)
            self._step(None, SimTimeout(f"wait timed out after {effect.timeout}s"))

        event.add_waiter(on_event)
        timer = self.engine.call_later(effect.timeout, on_timeout)

    def _step_event_result(self, event: SimEvent) -> None:
        if event.exception is not None:
            self._step(None, event.exception)
        else:
            self._step(event.value, None)

    def _do_wait_any(self, effect: WaitAny) -> None:
        events = effect.events
        if not events:
            raise SimulationError("WaitAny on empty event list")
        for idx, ev in enumerate(events):
            if ev.triggered:
                if ev.exception is not None:
                    exc = ev.exception
                    self.engine.post_at(self.engine.now, lambda e=exc: self._step(None, e))
                else:
                    pair = (idx, ev.value)
                    self.engine.post_at(self.engine.now, lambda p=pair: self._step(p, None))
                return
        fired = [False]
        callbacks = []

        def make_cb(idx: int, ev: SimEvent):
            def cb(value: Any, exc: Optional[BaseException]) -> None:
                if fired[0]:
                    return
                fired[0] = True
                for other, other_cb in callbacks:
                    if other is not ev:
                        other.discard_waiter(other_cb)
                if exc is not None:
                    self._step(None, exc)
                else:
                    self._step((idx, value), None)

            return cb

        for idx, ev in enumerate(events):
            cb = make_cb(idx, ev)
            callbacks.append((ev, cb))
            ev.add_waiter(cb)

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
