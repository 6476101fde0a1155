"""Wall-clock telemetry: real-time spans for the serving stack.

PR 2's tracer records *simulated* time — the clock inside the world.
This module points the same span/flow model at the *wall* clock, so the
serving side of the stack (``repro.serve``) gets the observability the
simulation already has:
request-scoped spans (``serve.request`` -> ``serve.queue`` ->
``serve.run``), dispatch flow edges, and the same byte-deterministic
Chrome/Perfetto export (:func:`repro.obs.export.chrome_trace`) on
real-time tracks.

A request's spans are tied together by a **trace id** minted in the
client (:class:`repro.serve.client.ServeClient`), carried through the
newline-JSON protocol as the ``trace`` field, through the admission
queue, the worker pipe, and — for ``sim`` requests — into the
simulation itself: the worker exports the run's simulated-time trace
next to the wall-clock one and the ``serve.run`` span carries a
``sim_trace`` attribute pointing at it, so one request is followable
client -> server -> worker -> simulated world.

Telemetry is **off by default** and follows the PR 2 discipline: every
instrumentation site costs one branch (``if tel is not None``) when
disabled.  :class:`LiveTelemetry` is thread-safe (the serve layer spans
from the asyncio loop thread while a client may span from its own).

Wall-clock timestamps are inherently nondeterministic; tests compare
exports through :func:`normalize_chrome_trace`, which zeroes ``ts`` and
``dur`` — everything else (track layout, span names, attrs, flow ids,
ordering) is byte-deterministic for identical request sequences.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional

from repro.obs.export import chrome_trace, dumps
from repro.simtime.trace import Tracer


def trace_id(prefix: str, n: int) -> str:
    """Deterministic trace id: ``<prefix>-<n>`` (no PRNG, no pid)."""
    return f"{prefix}-{n}"


class LiveTelemetry:
    """A wall-clock span recorder over the PR 2 :class:`Tracer`.

    Times are seconds since construction (``time.monotonic`` based), so
    exported traces start near zero.  ``clock`` is injectable for
    deterministic tests.
    """

    def __init__(self, *, enabled: bool = True,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.enabled = enabled
        self.tracer = Tracer()
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.Lock()

    def now(self) -> float:
        """Seconds since this telemetry object was created."""
        return self._clock() - self._t0

    # -- span recording ------------------------------------------------------
    def begin(self, track: str, name: str, **attrs: Any) -> int:
        if not self.enabled:
            return 0
        with self._lock:
            return self.tracer.begin(self.now(), track, name, **attrs)

    def end(self, sid: int) -> None:
        if not sid:
            return
        with self._lock:
            self.tracer.end(self.now(), sid)

    def annotate(self, sid: int, **attrs: Any) -> None:
        """Attach attributes to an open or closed span after the fact
        (e.g. the request status, known only at completion)."""
        if not sid:
            return
        with self._lock:
            span = self.tracer.spans.get(sid)
            if span is not None:
                span.attrs.update(attrs)

    def event(self, track: str, name: str, **attrs: Any) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.tracer.event(self.now(), track, name, **attrs)

    def flow(self, name: str, src_track: str, dst_track: str,
             **attrs: Any) -> int:
        """A causality edge between two real-time tracks, both ends
        stamped now (e.g. queue -> worker dispatch)."""
        if not self.enabled:
            return 0
        with self._lock:
            t = self.now()
            return self.tracer.flow(name, src_track, t, dst_track, t, **attrs)

    @contextmanager
    def span(self, track: str, name: str, **attrs: Any) -> Iterator[int]:
        sid = self.begin(track, name, **attrs)
        try:
            yield sid
        finally:
            self.end(sid)

    # -- export --------------------------------------------------------------
    def export(self) -> Dict[str, Any]:
        """The Chrome ``trace_event`` object for everything recorded."""
        with self._lock:
            return chrome_trace(self.tracer)

    def write(self, path: str) -> None:
        """Write the export as deterministic JSON (modulo timestamps)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(dumps(self.export()))


#: Span/event argument keys that carry measured wall-clock durations —
#: stripped alongside ``ts``/``dur`` when normalizing for comparison.
WALL_ARG_KEYS = frozenset({"wait_s", "latency_s", "wall_s", "run_s"})


def normalize_chrome_trace(obj: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of a Chrome trace object with wall-clock fields zeroed.

    ``ts``/``dur`` and the measured-duration argument keys in
    :data:`WALL_ARG_KEYS` are the only nondeterministic fields in a
    wall-clock export; with them normalized away, two identical request
    sequences must serialize byte-identically (the live-telemetry
    determinism contract asserted by ``tests/serve/test_telemetry.py``).
    """
    out = dict(obj)
    events = []
    for ev in obj.get("traceEvents", ()):
        ev = dict(ev)
        if "ts" in ev:
            ev["ts"] = 0
        if "dur" in ev:
            ev["dur"] = 0
        args = ev.get("args")
        if isinstance(args, dict) and not WALL_ARG_KEYS.isdisjoint(args):
            ev["args"] = {k: v for k, v in args.items()
                          if k not in WALL_ARG_KEYS}
        events.append(ev)
    # Event order must not depend on timing either: sort by the
    # deterministic identity fields.
    events.sort(key=lambda e: (e.get("ph", ""), e.get("pid", 0),
                               e.get("tid", 0), e.get("name", ""),
                               e.get("id", 0), dumps(e.get("args", {}))))
    out["traceEvents"] = events
    return out


#: A telemetry object that records nothing — handy as an explicit
#: "off" argument; the serve layer treats it exactly like ``None``.
DISABLED = LiveTelemetry(enabled=False)
