"""Structured tracing: nested spans, instants and causality edges.

One record model: nested timed spans per *track* (one track per
simulated rank or daemon), instant events, and cross-track causality
edges (message send -> receive) from which critical paths and
Chrome/Perfetto timelines are derived (``repro.obs``).

Protocol marks that belong to no rank's span tree (fault injections,
the exCID handshake's extended sends, ACKs and CID switches) are
instants on a per-category ``events:<category>`` track, named
``<category>.<event>``; tests read them from :attr:`Tracer.instants`
by name.

Tracing is off by default (:data:`NULL_TRACER` on the engine) and then
costs no call: every site tests ``tracer.enabled`` first
(``tests/obs/test_overhead.py``).

Span names follow ``layer.component.op`` (e.g. ``pmix.client.fence``,
``ompi.comm.create_from_group``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class Span:
    """A nested, timed interval on one track.

    ``parent`` is the span id of the innermost span open on the same
    track when this one began (0 = root).  ``end`` stays ``None`` while
    the span is open.
    """

    sid: int
    track: str
    name: str
    start: float
    parent: int = 0
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass
class Instant:
    """A zero-duration event on a track (Chrome 'i' phase)."""

    time: float
    track: str
    name: str
    span: int = 0                      # innermost open span at emission
    attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class FlowEdge:
    """A causality edge between two tracks (message send -> receive).

    The destination half stays ``None`` until :meth:`Tracer.flow_end`
    binds it; a dangling edge means the message never arrived (dropped
    by fault injection, or in flight at simulation end).
    """

    fid: int
    name: str
    src_track: str
    src_time: float
    src_span: int = 0
    dst_track: Optional[str] = None
    dst_time: Optional[float] = None
    dst_span: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.dst_time is not None


def track_for_proc(proc) -> str:
    """Track name for a job proc (anything with .nspace/.rank)."""
    return f"rank:{proc.nspace}/{proc.rank}"


def track_for_daemon(node: int) -> str:
    """Track name for the PRRTE daemon + PMIx server on one node."""
    return f"daemon:{node}"


class Tracer:
    """Collects spans, instants and flows."""

    def __init__(self, *, id_start: int = 1, id_step: int = 1) -> None:
        self.enabled = True
        # ``id_start``/``id_step`` carve out disjoint sid/fid spaces per
        # partition under repro.dsim (partition k of N allocates k+1,
        # k+1+N, ...), so merged traces never collide and a flow id
        # shipped inside a cross-partition message still names the
        # sender's allocation.  The defaults number serially from 1.
        self.spans: Dict[int, Span] = {}
        self.instants: List[Instant] = []
        self.flows: Dict[int, FlowEdge] = {}
        self._stacks: Dict[str, List[int]] = {}   # track -> open span ids
        self._id_step = id_step
        self._next_sid = id_start
        self._next_fid = id_start

    def _top(self, track: str) -> int:
        stack = self._stacks.get(track)
        return stack[-1] if stack else 0

    # -- span API -----------------------------------------------------------
    def begin(self, time: float, track: str, name: str, **attrs: Any) -> int:
        """Open a span; returns its id (0 if disabled).

        The innermost span already open on ``track`` becomes the parent.
        Pass the returned id to :meth:`end`; id 0 is always safe to end.
        """
        if not self.enabled:
            return 0
        sid = self._next_sid
        self._next_sid += self._id_step
        stack = self._stacks.setdefault(track, [])
        parent = stack[-1] if stack else 0
        self.spans[sid] = Span(sid, track, name, time, parent, None, attrs)
        stack.append(sid)
        return sid

    def end(self, time: float, sid: int) -> None:
        """Close a span.  Tolerates id 0, double-close, and out-of-order
        closes (the id is removed from wherever it sits in the stack)."""
        if not sid:
            return
        span = self.spans.get(sid)
        if span is None or span.end is not None:
            return
        span.end = time
        stack = self._stacks.get(span.track)
        if stack and sid in stack:
            stack.remove(sid)

    def event(self, time: float, track: str, name: str, **attrs: Any) -> None:
        """Record an instant on a track, tied to its innermost open span."""
        if not self.enabled:
            return
        self.instants.append(Instant(time, track, name, self._top(track), attrs))

    # -- causality edges ----------------------------------------------------
    def flow_begin(self, time: float, track: str, name: str, **attrs: Any) -> int:
        """Start a causality edge at (track, time); returns its id (0 if
        disabled).  Bind the arrival with :meth:`flow_end`."""
        if not self.enabled:
            return 0
        fid = self._next_fid
        self._next_fid += self._id_step
        self.flows[fid] = FlowEdge(fid, name, track, time, self._top(track), attrs=attrs)
        return fid

    def flow_end(self, time: float, track: str, fid: int) -> None:
        """Bind the arrival half of a flow.  Tolerates id 0 and double
        binding (duplicated packets keep the first arrival)."""
        if not fid:
            return
        flow = self.flows.get(fid)
        if flow is None:
            if self._id_step > 1:
                # A partition's tracer (repro.dsim): the begin half lives
                # in another partition; keep the dst half under the
                # sender-allocated fid so the merge can unify the two.
                # src_track="" marks the record as partial.
                self.flows[fid] = FlowEdge(fid, "", "", 0.0, 0, track, time,
                                           self._top(track))
            return
        if flow.dst_time is not None:
            return
        flow.dst_track = track
        flow.dst_time = time
        flow.dst_span = self._top(track)

    def flow(self, name: str, src_track: str, src_time: float,
             dst_track: str, dst_time: float, **attrs: Any) -> int:
        """Record a complete causality edge in one shot (for logical
        handoffs with no wire message, e.g. a server releasing a blocked
        client at a scheduled time)."""
        fid = self.flow_begin(src_time, src_track, name, **attrs)
        self.flow_end(dst_time, dst_track, fid)
        return fid

    # -- span-model queries (used by tests and exporters) -------------------
    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans.values() if s.name == name]

    def children(self, sid: int) -> List[Span]:
        return [s for s in self.spans.values() if s.parent == sid]

    def roots(self, track: Optional[str] = None) -> List[Span]:
        return [
            s for s in self.spans.values()
            if s.parent == 0 and (track is None or s.track == track)
        ]

    def span_tree(self, sid: int):
        """Nested ``(name, [children...])`` tuples rooted at ``sid`` —
        handy for asserting exact span shapes in white-box tests."""
        span = self.spans[sid]
        kids = sorted(self.children(sid), key=lambda s: (s.start, s.sid))
        return (span.name, [self.span_tree(k.sid) for k in kids])

    def tracks(self) -> List[str]:
        seen = set()
        for s in self.spans.values():
            seen.add(s.track)
        for i in self.instants:
            seen.add(i.track)
        for f in self.flows.values():
            seen.add(f.src_track)
            if f.dst_track is not None:
                seen.add(f.dst_track)
        return sorted(seen)

    def max_time(self) -> float:
        """Latest timestamp of anything recorded (0.0 if empty)."""
        t = 0.0
        for s in self.spans.values():
            t = max(t, s.start if s.end is None else s.end)
        for i in self.instants:
            t = max(t, i.time)
        for f in self.flows.values():
            t = max(t, f.src_time if f.dst_time is None else f.dst_time)
        return t


class NullTracer(Tracer):
    """Tracer that drops everything (the default, shared as :data:`NULL_TRACER`).

    Shares every code path with :class:`Tracer`; the only difference is
    that :attr:`enabled` is pinned False, and instrumented sites test it
    before any call, so an untraced run calls no tracer method at all
    (``tests/obs/test_overhead.py``).  ``enabled`` is a plain instance
    attribute (not a property) so that test is a single dict lookup; the
    ``__setattr__`` guard keeps the pin — a NullTracer can never be
    switched on (tests rely on this — swap in a real Tracer instead).
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "enabled":
            value = False
        object.__setattr__(self, name, value)


#: Shared default tracer attached to engines that were given none.
NULL_TRACER = NullTracer()
