"""Property-based tests of the simulation engine's ordering contract."""

import heapq
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simtime.engine import Engine, SimulationError
from repro.simtime.primitives import SimBarrier, SimEvent
from repro.simtime.process import Join, SimProcess, Sleep, Spawn

delays = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=40
)


@given(delays)
@settings(max_examples=150)
def test_events_fire_in_nondecreasing_time_order(ds):
    eng = Engine()
    fired = []
    for d in ds:
        eng.call_later(d, lambda d=d: fired.append(eng.now))
    eng.run()
    assert fired == sorted(fired)
    assert len(fired) == len(ds)


@given(delays)
@settings(max_examples=100)
def test_equal_times_fifo(ds):
    """Among events scheduled for the same instant, registration order wins."""
    eng = Engine()
    order = []
    for i, d in enumerate(ds):
        quantized = round(d)  # force collisions
        eng.call_later(quantized, lambda i=i, q=quantized: order.append((q, i)))
    eng.run()
    # Within each time bucket, indices appear in registration order.
    from collections import defaultdict

    buckets = defaultdict(list)
    for q, i in order:
        buckets[q].append(i)
    for seq in buckets.values():
        assert seq == sorted(seq)


@given(st.lists(st.floats(min_value=0.001, max_value=5.0), min_size=1, max_size=15))
@settings(max_examples=100, deadline=None)
def test_fork_join_time_is_max_of_children(ds):
    eng = Engine()

    def child(d):
        yield Sleep(d)
        return d

    def parent():
        kids = []
        for d in ds:
            kids.append((yield Spawn(child(d))))
        out = []
        for k in kids:
            out.append((yield Join(k)))
        return out

    proc = SimProcess(eng, parent(), "parent")
    proc.start()
    eng.run()
    assert eng.now == max(ds)
    assert proc.result == ds


@given(st.integers(min_value=1, max_value=12),
       st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=12, max_size=12))
@settings(max_examples=75, deadline=None)
def test_barrier_releases_at_last_arrival(parties, ds):
    eng = Engine()
    bar = SimBarrier(parties)
    releases = []

    def worker(d):
        yield Sleep(d)
        yield from bar.wait()
        releases.append(eng.now)

    used = ds[:parties]
    for d in used:
        SimProcess(eng, worker(d), "w").start()
    eng.run()
    assert len(releases) == parties
    assert all(r == max(used) for r in releases)


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=50)
def test_event_wakes_all_waiters_exactly_once(n):
    ev = SimEvent()
    woken = []
    for i in range(n):
        ev.add_waiter(lambda v, e, i=i: woken.append(i))
    ev.succeed("x")
    assert woken == list(range(n))


# -- the engine against a pure heapq model: full firing-order equality ------
class _HeapEngine:
    """The obvious scheduler: one heap ordered by ``(time, seq)``, a
    canceled entry skipped when popped.  The shipped engine adds the
    ready lane, inlined scheduling and compaction; every firing order,
    clock and event count must agree with this."""

    class _Entry(list):
        def cancel(self):
            self[2] = None

    def __init__(self):
        self.now = 0.0
        self.events_executed = 0
        self._heap = []
        self._seq = 0

    def call_at(self, when, fn):
        self._seq += 1
        entry = self._Entry([when, self._seq, fn])
        heapq.heappush(self._heap, entry)
        return entry

    def call_later(self, delay, fn):
        return self.call_at(self.now + delay, fn)

    def call_soon(self, fn):
        return self.call_at(self.now, fn)

    def run(self):
        while self._heap:
            when, _, fn = heapq.heappop(self._heap)
            if fn is not None:
                self.now = when
                self.events_executed += 1
                fn()
        return self.now


_ops = st.lists(
    st.tuples(
        st.sampled_from(["later", "soon", "cancel"]),
        st.integers(min_value=0, max_value=20),    # tenths of a second
        st.integers(min_value=0, max_value=3),     # nested call_soon fan-out
    ),
    min_size=1,
    max_size=25,
)


def _run_schedule_program(eng, ops):
    """Replay a generated schedule program; returns the (time, id) log."""
    log = []

    def make_cb(i, nested):
        def cb():
            log.append((eng.now, i))
            for j in range(nested):
                eng.call_soon(lambda i=i, j=j: log.append((eng.now, (i, j))))
        return cb

    cancelable = []
    for i, (kind, tenths, nested) in enumerate(ops):
        if kind == "soon":
            eng.call_soon(make_cb(i, nested))
        else:
            timer = eng.call_later(tenths / 10.0, make_cb(i, nested))
            if kind == "cancel":
                cancelable.append(timer)
    for timer in cancelable[::2]:
        timer.cancel()
    eng.run()
    return log, eng.events_executed


@given(_ops)
@settings(max_examples=150, deadline=None)
def test_fast_lane_matches_pure_heap_scheduler(ops):
    """The ready-lane scheduler and a pure-heap model must produce
    identical global firing orders — the determinism contract behind the
    frozen-bytes corpus, here under generated schedules mixing
    same-instant chains, duplicate timestamps and cancellations."""
    assert (_run_schedule_program(Engine(), ops)
            == _run_schedule_program(_HeapEngine(), ops))


_prog = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["sleep", "zero", "timeout", "ready"]),
            st.integers(min_value=0, max_value=10),
        ),
        min_size=1,
        max_size=6,
    ),
    min_size=1,
    max_size=6,
)


def _run_proc_program(prog):
    """Trampoline generated effect sequences on the engine."""
    from repro.simtime.process import SLEEP0, SimTimeout, Wait

    eng = Engine()
    log = []

    def worker(r, acts):
        for kind, val in acts:
            if kind == "sleep":
                yield Sleep(val / 1000.0)
            elif kind == "zero":
                yield SLEEP0
            elif kind == "timeout":
                try:
                    yield Wait(SimEvent(), timeout=(val + 1) / 1000.0)
                except SimTimeout:
                    pass
            else:  # wait on an already-triggered event (fast-lane resume)
                ev = SimEvent()
                ev.succeed(val)
                got = yield Wait(ev)
                assert got == val
            log.append((eng.now, r, kind))

    for r, acts in enumerate(prog):
        SimProcess(eng, worker(r, acts), f"w{r}").start()
    eng.run()
    return log, eng.events_executed


#: What each effect of ``_prog`` costs: one event, this far from now.
_EFFECT_DELAY = {"sleep": lambda v: v / 1000.0, "zero": lambda v: 0.0,
                 "timeout": lambda v: (v + 1) / 1000.0, "ready": lambda v: 0.0}


def _model_proc_program(prog):
    """The same programs as plain callbacks on the heap model: a start
    is one event at now, every effect one event at now + its delay."""
    eng = _HeapEngine()
    log = []

    def resume(r, acts, i):
        if i:
            log.append((eng.now, r, acts[i - 1][0]))
        if i < len(acts):
            kind, val = acts[i]
            eng.call_later(_EFFECT_DELAY[kind](val),
                           lambda: resume(r, acts, i + 1))

    for r, acts in enumerate(prog):
        eng.call_soon(lambda r=r, acts=acts: resume(r, acts, 0))
    eng.run()
    return log, eng.events_executed


@given(_prog)
@settings(max_examples=100, deadline=None)
def test_trampoline_fast_path_matches_reference(prog):
    """Sleep/zero-sleep/timed-wait/triggered-wait interleavings resume in
    the global order (and execute the engine events) of the reference:
    each effect one callback on a pure heap."""
    assert _run_proc_program(prog) == _model_proc_program(prog)


@given(delays, st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
@settings(max_examples=100)
def test_run_until_boundary(ds, until):
    """run(until) fires everything <= until (inclusive), never moves the
    clock backwards, and a later run() completes the schedule."""
    eng = Engine()
    fired = []
    for d in ds:
        eng.call_later(d, lambda d=d: fired.append(d))
    eng.run(until=until)
    assert fired == sorted(d for d in ds if d <= until)
    assert eng.now == max([until] + fired)
    before = eng.now
    assert eng.run(until=0.0) == before      # past horizon: no-op
    eng.run()
    assert sorted(fired) == sorted(ds)


# -- SimEvent against a deque model ----------------------------------------
class _DequeEvent:
    """The obvious SimEvent: a deque of waiters, swapped out on trigger.
    The shipped one stores None / one callback / a list instead; every
    observable — wake order, discard, late and nested registration,
    ``has_waiters``, double-trigger errors — must agree with this."""

    def __init__(self):
        self._waiters = deque()
        self.triggered = False
        self.value = None
        self.exception = None

    @property
    def has_waiters(self):
        return bool(self._waiters)

    def add_waiter(self, cb):
        if self.triggered:
            cb(self.value, self.exception)
            return
        self._waiters.append(cb)

    def discard_waiter(self, cb):
        try:
            self._waiters.remove(cb)
        except ValueError:
            pass

    def _trigger(self, value, exc):
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value, self.exception = value, exc
        waiters, self._waiters = self._waiters, deque()
        for cb in waiters:
            cb(value, exc)

    def succeed(self, value=None):
        self._trigger(value, None)

    def fail(self, exc):
        self._trigger(None, exc)


class _Waiter:
    """A callback with value equality (like the bound methods the
    trampoline registers: a fresh object per access, equal by target).
    When woken, waiter ``i`` may register waiter ``nested[i]`` and
    discard waiter ``dropped[i]`` from inside its callback."""

    def __init__(self, i, event, log, nested, dropped):
        self.i, self.event, self.log = i, event, log
        self.nested, self.dropped = nested, dropped

    def __eq__(self, other):
        return isinstance(other, _Waiter) and other.i == self.i

    def __hash__(self):
        return hash(self.i)

    def __call__(self, value, exc):
        self.log.append(("woke", self.i, value, repr(exc)))
        if self.i in self.dropped:
            self.event.discard_waiter(self._peer(self.dropped[self.i]))
        if self.i in self.nested:
            self.event.add_waiter(self._peer(self.nested[self.i]))

    def _peer(self, j):
        return _Waiter(j, self.event, self.log, {}, {})


_WAITER_IDS = st.integers(min_value=0, max_value=5)
_event_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _WAITER_IDS),
        st.tuples(st.just("discard"), _WAITER_IDS),
        st.tuples(st.just("has"), st.just(0)),
        st.tuples(st.sampled_from(["succeed", "fail"]), st.integers(0, 3)),
    ),
    max_size=14,
)


def _run_event_program(event, ops, nested, dropped):
    log = []

    def waiter(i):
        return _Waiter(i, event, log, nested, dropped)

    for op, arg in ops:
        if op == "add":
            event.add_waiter(waiter(arg))
        elif op == "discard":
            event.discard_waiter(waiter(arg))
        elif op == "has":
            log.append(("has", event.has_waiters))
        else:
            try:
                if op == "succeed":
                    event.succeed(arg)
                else:
                    event.fail(ValueError(arg))
            except RuntimeError as err:
                log.append(("error", str(err)))
        log.append((event.triggered, event.value, repr(event.exception),
                    event.has_waiters))
    return log


@given(_event_ops,
       st.dictionaries(_WAITER_IDS, _WAITER_IDS, max_size=3),
       st.dictionaries(_WAITER_IDS, _WAITER_IDS, max_size=3))
@settings(max_examples=300, deadline=None)
def test_simevent_matches_deque_model(ops, nested, dropped):
    """0/1/2/n waiters (duplicates included), discarding the only, first,
    middle or an absent one, registering after the trigger, registering
    and discarding from inside a callback, triggering twice."""
    assert (_run_event_program(SimEvent(), ops, nested, dropped)
            == _run_event_program(_DequeEvent(), ops, nested, dropped))


def test_simevent_waiter_cases():
    """The cases the representation switches on, spelled out."""
    for n, discard, expect in [
        (0, None, []),
        (1, None, [0]),
        (1, 0, []),              # the only waiter
        (2, None, [0, 1]),
        (2, 0, [1]),             # first of two: back to a non-empty list
        (3, 1, [0, 2]),          # the middle one
        (3, 7, [0, 1, 2]),       # absent
    ]:
        ev, woken = SimEvent(), []
        cbs = [lambda v, e, i=i: woken.append(i) for i in range(n)]
        for cb in cbs:
            ev.add_waiter(cb)
        if discard is not None:
            ev.discard_waiter(cbs[discard] if discard < n else (lambda v, e: None))
        assert ev.has_waiters == bool(expect)
        ev.succeed()
        assert woken == expect and not ev.has_waiters
        ev.add_waiter(lambda v, e: woken.append("late"))   # runs at once
        assert woken == expect + ["late"]


# -- post_at == call_at without the handle ---------------------------------
_posts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),    # tenths of a second
        st.booleans(),                             # post_at (else call_at)
        st.lists(                                  # scheduled from inside
            st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
            max_size=3),
    ),
    min_size=1,
    max_size=20,
)


def _run_post_program(posts, use_post):
    eng = Engine()
    log = []

    def schedule(when, post, fn):
        if post and use_post:
            assert eng.post_at(when, fn) is None
        else:
            eng.call_at(when, fn)

    def make_cb(i, inner):
        def cb():
            log.append((eng.now, i))
            for j, (tenths, post) in enumerate(inner):
                # tenths == 0 is ``when == now``: the ready lane.
                schedule(eng.now + tenths / 10.0, post,
                         lambda i=i, j=j: log.append((eng.now, (i, j))))
        return cb

    for i, (tenths, post, inner) in enumerate(posts):
        schedule(tenths / 10.0, post, make_cb(i, inner))
    eng.run()
    return log, eng.events_executed, eng.now


@given(_posts)
@settings(max_examples=200, deadline=None)
def test_post_at_fires_exactly_like_call_at(posts):
    """Same (time, seq) position and lane as ``call_at`` — mixing the two
    on one engine changes nothing."""
    assert (_run_post_program(posts, use_post=True)
            == _run_post_program(posts, use_post=False))


def test_post_at_rejects_the_past():
    eng = Engine()
    eng.post_at(1.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError, match="in the past"):
        eng.post_at(0.5, lambda: None)
    eng.post_at(1.0, lambda: None)        # ``when == now`` is not the past
    assert eng.run() == 1.0 and eng.events_executed == 2


# -- call_at_batch == a loop of call_at --------------------------------------
_batches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),     # tenths of a second
        st.booleans(),                             # batched (else call_at)
        st.integers(min_value=0, max_value=4),     # callbacks at that time
        st.lists(                                  # scheduled from inside
            st.tuples(st.integers(min_value=0, max_value=2),
                      st.integers(min_value=0, max_value=3)),
            max_size=2),
    ),
    min_size=1,
    max_size=12,
)


def _run_batch_program(items, use_batch):
    eng = Engine()
    log = []

    def schedule(when, batched, fns):
        if batched and use_batch:
            eng.call_at_batch(when, fns)
        else:
            for fn in fns:
                eng.call_at(when, fn)

    def make_cb(i, j, batched, inner):
        def cb():
            log.append((eng.now, i, j))
            for k, (tenths, n) in enumerate(inner):
                # tenths == 0 lands at this instant, behind the batch.
                schedule(eng.now + tenths / 10.0, batched,
                         [lambda k=k, m=m: log.append((eng.now, (i, j, k, m)))
                          for m in range(n)])
        return cb

    for i, (tenths, batched, n, inner) in enumerate(items):
        schedule(tenths / 10.0, batched,
                 [make_cb(i, j, batched, inner) for j in range(n)])
    eng.run()
    return log, eng.events_executed, eng.now


@given(_batches)
@settings(max_examples=200, deadline=None)
def test_call_at_batch_fires_like_a_loop_of_call_at(items):
    """One physical entry, N logical events: the firing order, the clock
    and ``events_executed`` equal a loop of ``call_at`` at the same time,
    among other same-instant and later events."""
    assert (_run_batch_program(items, use_batch=True)
            == _run_batch_program(items, use_batch=False))
