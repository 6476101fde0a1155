"""Unit tests for simulation events and barriers."""

import pytest

from repro.simtime.engine import Engine
from repro.simtime.primitives import SimBarrier, SimEvent
from repro.simtime.process import SimProcess, Sleep


def start(eng, gen, name="p"):
    proc = SimProcess(eng, gen, name)
    proc.start()
    return proc


class TestSimEvent:
    def test_double_succeed_rejected(self):
        ev = SimEvent()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_fail_then_succeed_rejected(self):
        ev = SimEvent()
        ev.fail(ValueError("x"))
        with pytest.raises(RuntimeError):
            ev.succeed(1)

    def test_add_waiter_after_trigger_fires_immediately(self):
        ev = SimEvent()
        ev.succeed("v")
        seen = []
        ev.add_waiter(lambda value, exc: seen.append((value, exc)))
        assert seen == [("v", None)]

    def test_waiters_fire_in_order(self):
        ev = SimEvent()
        seen = []
        ev.add_waiter(lambda v, e: seen.append("first"))
        ev.add_waiter(lambda v, e: seen.append("second"))
        ev.succeed(None)
        assert seen == ["first", "second"]

    def test_discard_waiter(self):
        ev = SimEvent()
        seen = []
        cb = lambda v, e: seen.append("x")  # noqa: E731
        ev.add_waiter(cb)
        ev.discard_waiter(cb)
        ev.succeed(None)
        assert seen == []


class TestSimBarrier:
    def test_all_release_together(self):
        eng = Engine()
        bar = SimBarrier(3)
        released = []

        def worker(tag, delay):
            yield Sleep(delay)
            yield from bar.wait()
            released.append((tag, eng.now))

        start(eng, worker("a", 1.0))
        start(eng, worker("b", 2.0))
        start(eng, worker("c", 3.0))
        eng.run()
        assert [t for _, t in released] == [3.0, 3.0, 3.0]

    def test_reusable_generations(self):
        eng = Engine()
        bar = SimBarrier(2)
        gens = []

        def worker():
            g1 = yield from bar.wait()
            g2 = yield from bar.wait()
            gens.append((g1, g2))

        start(eng, worker())
        start(eng, worker())
        eng.run()
        assert gens == [(1, 2), (1, 2)]

    def test_single_party_never_blocks(self):
        eng = Engine()
        bar = SimBarrier(1)

        def worker():
            g = yield from bar.wait()
            return g

        proc = start(eng, worker())
        eng.run()
        assert proc.result == 1

    def test_zero_parties_rejected(self):
        with pytest.raises(ValueError):
            SimBarrier(0)
