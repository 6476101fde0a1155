"""Unit tests for SimProcess effects and composition."""

import pytest

from repro.simtime.engine import Engine
from repro.simtime.primitives import SimEvent
from repro.simtime.process import (
    Join,
    Now,
    ProcessKilled,
    Self,
    SimProcess,
    SimTimeout,
    Sleep,
    Spawn,
    Wait,
)


def start(eng, gen, name="p"):
    proc = SimProcess(eng, gen, name)
    proc.start()
    return proc


def test_sleep_advances_time():
    eng = Engine()

    def p():
        yield Sleep(2.0)
        t = yield Now()
        return t

    proc = start(eng, p())
    eng.run()
    assert proc.result == 2.0


def test_return_value_captured():
    eng = Engine()

    def p():
        yield Sleep(0.1)
        return 42

    proc = start(eng, p())
    eng.run()
    assert proc.finished and proc.result == 42


def test_yield_from_composition():
    eng = Engine()

    def inner():
        yield Sleep(1.0)
        return "inner-result"

    def outer():
        value = yield from inner()
        yield Sleep(1.0)
        return value + "!"

    proc = start(eng, outer())
    eng.run()
    assert proc.result == "inner-result!"
    assert eng.now == 2.0


def test_wait_receives_event_value():
    eng = Engine()
    ev = SimEvent()

    def waiter():
        value = yield Wait(ev)
        return value

    def trigger():
        yield Sleep(1.0)
        ev.succeed("hello")

    w = start(eng, waiter())
    start(eng, trigger())
    eng.run()
    assert w.result == "hello"


def test_wait_on_already_triggered_event():
    eng = Engine()
    ev = SimEvent()
    ev.succeed(7)

    def p():
        value = yield Wait(ev)
        return value

    proc = start(eng, p())
    eng.run()
    assert proc.result == 7


def test_wait_timeout_raises():
    eng = Engine()
    never = SimEvent()

    def p():
        with pytest.raises(SimTimeout):
            yield Wait(never, timeout=1.0)
        return "survived"

    proc = start(eng, p())
    eng.run()
    assert proc.result == "survived"
    assert eng.now == 1.0


def test_wait_timeout_not_fired_when_event_first():
    eng = Engine()
    ev = SimEvent()

    def p():
        value = yield Wait(ev, timeout=5.0)
        return value

    def trigger():
        yield Sleep(1.0)
        ev.succeed("fast")

    proc = start(eng, p())
    start(eng, trigger())
    eng.run()
    assert proc.result == "fast"
    assert eng.now == pytest.approx(1.0)


def test_spawn_and_join():
    eng = Engine()

    def child(n):
        yield Sleep(n)
        return n * 10

    def parent():
        c1 = yield Spawn(child(1.0))
        c2 = yield Spawn(child(2.0))
        r1 = yield Join(c1)
        r2 = yield Join(c2)
        return r1 + r2

    proc = start(eng, parent())
    eng.run()
    assert proc.result == 30.0
    assert eng.now == 2.0  # children ran concurrently


def test_join_already_finished_child():
    eng = Engine()

    def child():
        yield Sleep(0.5)
        return "done"

    def parent():
        c = yield Spawn(child())
        yield Sleep(2.0)
        return (yield Join(c))

    proc = start(eng, parent())
    eng.run()
    assert proc.result == "done"


def test_join_reraises_child_exception():
    eng = Engine()

    def child():
        yield Sleep(0.5)
        raise ValueError("child boom")

    def parent():
        c = yield Spawn(child())
        with pytest.raises(ValueError, match="child boom"):
            yield Join(c)
        return "handled"

    proc = start(eng, parent())
    eng.run()
    assert proc.result == "handled"


def test_unhandled_exception_fails_fast():
    eng = Engine()

    def p():
        yield Sleep(0.5)
        raise RuntimeError("nobody watching")

    start(eng, p())
    with pytest.raises(RuntimeError, match="nobody watching"):
        eng.run()


def test_self_effect_returns_process():
    eng = Engine()

    def p():
        me = yield Self()
        return me.name

    proc = start(eng, p(), name="alice")
    eng.run()
    assert proc.result == "alice"


def test_kill_interrupts_sleep():
    eng = Engine()

    def victim():
        try:
            yield Sleep(100.0)
        except ProcessKilled:
            return "killed"
        return "survived"

    v = start(eng, victim())

    def killer():
        yield Sleep(1.0)
        v.kill("test")

    start(eng, killer())
    eng.run()
    assert v.result == "killed"
    assert eng.now == pytest.approx(1.0)


def test_kill_interrupts_wait():
    eng = Engine()
    never = SimEvent()

    def victim():
        try:
            yield Wait(never)
        except ProcessKilled:
            return "killed-in-wait"

    v = start(eng, victim())

    def killer():
        yield Sleep(1.0)
        v.kill()

    start(eng, killer())
    eng.run()
    assert v.result == "killed-in-wait"


def test_uncaught_kill_is_not_fatal():
    eng = Engine()

    def victim():
        yield Sleep(100.0)

    v = start(eng, victim())

    def killer():
        yield Sleep(1.0)
        v.kill()

    start(eng, killer())
    eng.run()  # must not raise
    assert v.finished
    assert isinstance(v.exception, ProcessKilled)


def test_yielding_garbage_is_an_error():
    eng = Engine()

    def p():
        yield "not an effect"

    proc = start(eng, p())
    proc.defuse()
    eng.run()
    assert proc.exception is not None
