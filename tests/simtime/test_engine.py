"""Unit tests for the discrete-event engine."""

import pytest

from repro.simtime.engine import DeadlockError, Engine, SimulationError
from repro.simtime.process import SimProcess, Sleep, SleepUntil


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_call_later_advances_clock():
    eng = Engine()
    seen = []
    eng.call_later(1.5, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [1.5]
    assert eng.now == 1.5


def test_events_fire_in_time_order():
    eng = Engine()
    seen = []
    eng.call_later(3.0, lambda: seen.append("c"))
    eng.call_later(1.0, lambda: seen.append("a"))
    eng.call_later(2.0, lambda: seen.append("b"))
    eng.run()
    assert seen == ["a", "b", "c"]


def test_fifo_tie_break_at_same_time():
    eng = Engine()
    seen = []
    for label in "abcde":
        eng.call_later(1.0, lambda l=label: seen.append(l))
    eng.run()
    assert seen == list("abcde")


def test_nested_scheduling_from_callback():
    eng = Engine()
    seen = []

    def outer():
        seen.append(("outer", eng.now))
        eng.call_later(0.5, lambda: seen.append(("inner", eng.now)))

    eng.call_later(1.0, outer)
    eng.run()
    assert seen == [("outer", 1.0), ("inner", 1.5)]


def test_schedule_in_past_rejected():
    eng = Engine()
    eng.call_later(1.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.call_at(0.5, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().call_later(-1.0, lambda: None)


NAN = float("nan")


@pytest.mark.parametrize("schedule", [
    lambda eng, fn: eng.call_at(NAN, fn),
    lambda eng, fn: eng.post_at(NAN, fn),
    lambda eng, fn: eng.call_at_batch(NAN, [fn, fn]),
    lambda eng, fn: eng.call_later(NAN, fn),
], ids=["call_at", "post_at", "call_at_batch", "call_later"])
def test_nan_time_rejected(schedule):
    """NaN compares false both ways: in the heap it would fire at an
    arbitrary point, so every past-time check refuses it."""
    eng = Engine()
    with pytest.raises(SimulationError):
        schedule(eng, lambda: None)
    assert eng.run() == 0.0 and eng.events_executed == 0


@pytest.mark.parametrize("effect", [Sleep(NAN), Sleep(-1.0), SleepUntil(NAN)],
                         ids=["sleep-nan", "sleep-negative", "sleep-until-nan"])
def test_process_sleep_to_a_bad_time_fails_loudly(effect):
    eng = Engine()

    def proc():
        yield Sleep(1.0)
        yield effect

    SimProcess(eng, proc(), "p").start()
    with pytest.raises(SimulationError):
        eng.run()
    assert eng.now == 1.0


def test_run_until_stops_early():
    eng = Engine()
    seen = []
    eng.call_later(1.0, lambda: seen.append(1))
    eng.call_later(5.0, lambda: seen.append(5))
    eng.run(until=2.0)
    assert seen == [1]
    assert eng.now == 2.0
    eng.run()
    assert seen == [1, 5]


def test_timer_cancel():
    eng = Engine()
    seen = []
    timer = eng.call_later(1.0, lambda: seen.append("x"))
    eng.call_later(2.0, lambda: seen.append("y"))
    timer.cancel()
    assert timer.canceled
    eng.run()
    assert seen == ["y"]


def test_zero_delay_runs_at_current_time():
    eng = Engine()
    seen = []
    eng.call_later(1.0, lambda: eng.call_later(0.0, lambda: seen.append(eng.now)))
    eng.run()
    assert seen == [1.0]


def test_deadlock_detection_reports_blocked_processes():
    from repro.simtime.process import SimProcess, Wait
    from repro.simtime.primitives import SimEvent

    eng = Engine()
    never = SimEvent()

    def stuck():
        yield Wait(never)

    SimProcess(eng, stuck(), "stuck").start()
    with pytest.raises(DeadlockError, match="1 process"):
        eng.run()


# -- fast-path scheduler: ready lane, lazy deletion, run(until) edges ------
def test_heap_drains_before_ready_lane_at_same_instant():
    """The FIFO contract across lanes: heap entries due at t predate
    (smaller seq) every ready-lane entry appended at t."""
    eng = Engine()
    order = []

    def first():
        order.append("first")
        eng.call_soon(lambda: order.append("chained"))

    eng.call_later(1.0, first)
    eng.call_later(1.0, lambda: order.append("second"))
    eng.run()
    assert order == ["first", "second", "chained"]


def test_same_instant_ordering_across_scheduling_apis():
    eng = Engine()
    order = []
    eng.call_at(0.0, lambda: order.append("at"))
    eng.call_soon(lambda: order.append("soon"))
    eng.call_later(0.0, lambda: order.append("later"))
    eng.run()
    assert order == ["at", "soon", "later"]


def test_ready_lane_timer_cancel():
    eng = Engine()
    fired = []
    t1 = eng.call_soon(lambda: fired.append(1))
    eng.call_soon(lambda: fired.append(2))
    t1.cancel()
    assert t1.canceled
    eng.run()
    assert fired == [2]


def test_cancel_compaction_bounds_dead_entries():
    from repro.simtime.engine import _COMPACT_MIN

    eng = Engine()
    fired = []
    timers = [
        eng.call_later(1.0 + i * 1e-6, lambda i=i: fired.append(i))
        for i in range(500)
    ]
    for t in timers[:400]:
        t.cancel()
        # The compaction invariant: canceled entries never outnumber
        # live ones once there are enough of them to matter.
        assert (eng._ncanceled < _COMPACT_MIN
                or eng._ncanceled * 2 <= len(eng._queue))
    assert len(eng._queue) < 200        # corpses actually swept
    eng.run()
    assert fired == list(range(400, 500))
    assert eng._ncanceled == 0


def test_compaction_during_run_keeps_pending_events():
    """Cancels from inside callbacks may trigger compaction mid-run; the
    run loop's alias of the queue must survive it (in-place sweep)."""
    from repro.simtime.engine import _COMPACT_MIN

    eng = Engine()
    fired = []
    doomed = [eng.call_later(5.0 + i * 1e-6, lambda: fired.append("doomed"))
              for i in range(2 * _COMPACT_MIN)]

    def cancel_all():
        for t in doomed:
            t.cancel()

    eng.call_later(1.0, cancel_all)
    eng.call_later(2.0, lambda: fired.append("after"))
    eng.run()
    assert fired == ["after"]
    assert eng.now == 2.0


def test_run_until_fires_events_at_exactly_until():
    eng = Engine()
    fired = []
    eng.call_later(1.0, lambda: fired.append("at"))
    eng.call_later(1.0, lambda: eng.call_soon(lambda: fired.append("cascade")))
    eng.call_later(2.0, lambda: fired.append("later"))
    assert eng.run(until=1.0) == 1.0
    assert fired == ["at", "cascade"]
    assert eng.run() == 2.0
    assert fired == ["at", "cascade", "later"]


def test_run_until_in_past_is_noop():
    eng = Engine()
    fired = []
    eng.call_later(1.0, lambda: fired.append(1))
    eng.run(until=1.0)
    eng.call_soon(lambda: fired.append(2))
    assert eng.run(until=0.5) == 1.0    # horizon already passed: no-op
    assert fired == [1]
    eng.run()
    assert fired == [1, 2]


def test_reentrant_run_raises():
    eng = Engine()
    caught = []

    def reenter():
        try:
            eng.run()
        except SimulationError:
            caught.append(True)

    eng.call_soon(reenter)
    eng.run()
    assert caught == [True]
    # The engine stays usable after the rejected re-entry.
    eng.call_soon(lambda: caught.append("again"))
    eng.run()
    assert caught == [True, "again"]
