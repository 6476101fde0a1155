"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON + flame report.

The Chrome format (loadable at ``ui.perfetto.dev`` or
``chrome://tracing``) maps our model as:

* track group (``rank``, ``daemon``, ``events``) -> process (``pid``),
* track -> thread (``tid``), named via ``M`` metadata events,
* span -> ``X`` complete event (``ts``/``dur`` in microseconds),
* instant -> ``i`` event,
* flow edge -> ``s``/``f`` flow-event pair (send -> receive arrows).

Export is byte-deterministic for identical runs: event order is fully
specified, ids come from the tracer's own counters, and
:func:`dumps` serializes with sorted keys and fixed separators.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Tuple

from repro.sweep import CANONICAL

#: Simulated seconds -> trace microseconds.
_US = 1e6


def _natural(track: str) -> Tuple:
    """Sort key that orders numeric fragments numerically, so
    ``rank:job/10`` lands after ``rank:job/2``."""
    return tuple(int(p) if p.isdigit() else p
                 for p in re.split(r"(\d+)", track))


def _track_layout(tracer) -> Tuple[Dict[str, Tuple[int, int]], List[str]]:
    """Deterministic track -> (pid, tid) assignment, grouped by prefix."""
    return _layout_from_tracks(tracer.tracks())


def _layout_from_tracks(
    track_names,
) -> Tuple[Dict[str, Tuple[int, int]], List[str]]:
    tracks = sorted(track_names, key=_natural)
    groups: List[str] = []
    for t in tracks:
        g = t.split(":", 1)[0]
        if g not in groups:
            groups.append(g)
    groups.sort()
    layout: Dict[str, Tuple[int, int]] = {}
    tids: Dict[str, int] = {}
    for t in tracks:
        g = t.split(":", 1)[0]
        tids[g] = tids.get(g, 0) + 1
        layout[t] = (1 + groups.index(g), tids[g])
    return layout, groups


def _args(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-safe, deterministically ordered args."""
    out: Dict[str, Any] = {}
    for k in sorted(attrs):
        v = attrs[k]
        out[str(k)] = v if isinstance(v, (int, float, bool, str, type(None))) else str(v)
    return out


def chrome_trace(tracer) -> Dict[str, Any]:
    """Build a Chrome ``trace_event`` JSON object from a tracer."""
    layout, groups = _track_layout(tracer)
    t_max = tracer.max_time()
    events: List[Dict[str, Any]] = []

    # Metadata: name the processes (track groups) and threads (tracks).
    for g in groups:
        events.append({"ph": "M", "name": "process_name", "pid": 1 + groups.index(g),
                       "tid": 0, "args": {"name": g}})
    for track in sorted(layout, key=_natural):
        pid, tid = layout[track]
        events.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                       "args": {"name": track}})

    # Spans -> complete events.  Open spans are clamped to the end of
    # the run and flagged, so a hung protocol is visible, not invisible.
    for sid in sorted(tracer.spans):
        span = tracer.spans[sid]
        pid, tid = layout[span.track]
        end = span.end if span.end is not None else t_max
        args = _args(span.attrs)
        if span.end is None:
            args["open"] = True
        events.append({
            "ph": "X", "name": span.name, "cat": span.name.split(".", 1)[0],
            "ts": span.start * _US, "dur": (end - span.start) * _US,
            "pid": pid, "tid": tid, "args": args,
        })

    # Instants.
    for inst in tracer.instants:
        pid, tid = layout[inst.track]
        events.append({
            "ph": "i", "s": "t", "name": inst.name,
            "cat": inst.name.split(".", 1)[0],
            "ts": inst.time * _US, "pid": pid, "tid": tid,
            "args": _args(inst.attrs),
        })

    # Flows: emit the start half always (a dangling 's' marks a dropped
    # or in-flight message); the finish half only when bound.
    for fid in sorted(tracer.flows):
        flow = tracer.flows[fid]
        cat = flow.name.split(".", 1)[0]
        pid, tid = layout[flow.src_track]
        events.append({
            "ph": "s", "id": fid, "name": flow.name, "cat": cat,
            "ts": flow.src_time * _US, "pid": pid, "tid": tid,
        })
        if flow.complete:
            pid, tid = layout[flow.dst_track]
            events.append({
                "ph": "f", "bp": "e", "id": fid, "name": flow.name, "cat": cat,
                "ts": flow.dst_time * _US, "pid": pid, "tid": tid,
            })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs"},
    }


#: Arg keys dropped by :func:`canonical_chrome_trace`: they carry raw
#: tracer span/flow ids, which are allocation-order artifacts (a
#: partitioned run strides its id spaces, see ``repro.dsim``).
CANON_DROP_ARGS = frozenset({"flow", "span"})

_PARTITION_PREFIX = re.compile(r"^p\d+:")


def canonical_chrome_trace(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Partition-invariant normal form of a Chrome trace object.

    A partitioned run (``repro.dsim``) namespaces its tracks ``p{k}:``
    and allocates span/flow ids with a per-partition stride, so its raw
    export differs from the single-process reference in exactly three
    id-shaped ways.  This strips all three — track prefixes (tracks are
    re-laid-out with the standard :func:`_track_layout` algorithm),
    flow ids (renumbered by event content), and the ``flow``/``span``
    arg keys — and re-sorts events by content.  Timestamps, durations,
    names and all remaining args are kept verbatim: two runs of the
    same world are equivalent iff their canonical forms are
    byte-identical under :func:`dumps`.
    """
    events = obj["traceEvents"]
    old_track: Dict[Tuple[int, int], str] = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            old_track[(ev["pid"], ev["tid"])] = ev["args"]["name"]
    stripped = {key: _PARTITION_PREFIX.sub("", t)
                for key, t in old_track.items()}
    layout, groups = _layout_from_tracks(set(stripped.values()))

    out: List[Dict[str, Any]] = []
    for g in groups:
        out.append({"ph": "M", "name": "process_name",
                    "pid": 1 + groups.index(g), "tid": 0, "args": {"name": g}})
    for track in sorted(layout, key=_natural):
        pid, tid = layout[track]
        out.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": track}})

    flows: Dict[Any, List[Dict[str, Any]]] = {}
    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            continue
        ev = dict(ev)
        pid, tid = layout[stripped[(ev["pid"], ev["tid"])]]
        ev["pid"], ev["tid"] = pid, tid
        if "args" in ev:
            ev["args"] = {k: v for k, v in ev["args"].items()
                          if k not in CANON_DROP_ARGS}
        if ph in ("s", "t", "f"):
            flows.setdefault(ev["id"], []).append(ev)
        else:
            out.append(ev)

    def flow_key(evs: List[Dict[str, Any]]) -> str:
        return dumps(sorted(
            ({k: v for k, v in e.items() if k != "id"} for e in evs),
            key=dumps))

    renumbered = sorted(flows.items(), key=lambda kv: (flow_key(kv[1]), kv[0]))
    for new_id, (_old, evs) in enumerate(renumbered, start=1):
        for e in evs:
            e["id"] = new_id
            out.append(e)

    out.sort(key=lambda e: (e["ph"] != "M", dumps(e)))
    return {"traceEvents": out, "displayTimeUnit": "ms",
            "otherData": {"generator": "repro.obs"}}


def dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, fixed separators, no whitespace
    drift — two identical runs serialize byte-identically."""
    return CANONICAL.encode(obj)


def validate_chrome_trace(obj: Any) -> List[str]:
    """Structural validation against the Chrome trace_event schema.
    Returns a list of problems (empty = valid)."""
    errors: List[str] = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a 'traceEvents' list"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in {"X", "B", "E", "i", "I", "M", "s", "t", "f", "C"}:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        for field_name in ("pid", "tid"):
            if not isinstance(ev.get(field_name), int):
                errors.append(f"{where}: missing int {field_name!r}")
        if ph != "M" and not isinstance(ev.get("ts"), (int, float)):
            errors.append(f"{where}: missing numeric 'ts'")
        if ph == "X":
            if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
                errors.append(f"{where}: 'X' event needs non-negative 'dur'")
            if not ev.get("name"):
                errors.append(f"{where}: 'X' event needs a name")
        if ph in ("s", "t", "f") and "id" not in ev:
            errors.append(f"{where}: flow event needs an 'id'")
        if ph == "M" and ev.get("name") not in (
                "process_name", "thread_name", "process_labels",
                "process_sort_index", "thread_sort_index"):
            errors.append(f"{where}: unknown metadata {ev.get('name')!r}")
    return errors


def flame_report(tracer, *, min_frac: float = 0.0) -> str:
    """Plain-text flamegraph-style report: span names aggregated along
    their ancestry path, with inclusive time, self time, and counts."""
    # path (tuple of names root->leaf) -> [inclusive, count]
    agg: Dict[Tuple[str, ...], List[float]] = {}
    child_time: Dict[Tuple[str, ...], float] = {}

    def path_of(span) -> Tuple[str, ...]:
        names: List[str] = []
        s = span
        while s is not None:
            names.append(s.name)
            s = tracer.spans.get(s.parent)
        return tuple(reversed(names))

    for span in tracer.spans.values():
        if span.end is None:
            continue
        p = path_of(span)
        slot = agg.setdefault(p, [0.0, 0])
        slot[0] += span.duration
        slot[1] += 1
        if len(p) > 1:
            child_time[p[:-1]] = child_time.get(p[:-1], 0.0) + span.duration

    if not agg:
        return "(no closed spans)"
    total = sum(v[0] for p, v in agg.items() if len(p) == 1)
    kids: Dict[Tuple[str, ...], List[Tuple[str, ...]]] = {}
    for p in agg:
        kids.setdefault(p[:-1], []).append(p)
    lines = [f"{'inclusive':>12} {'self':>12} {'count':>6}  span"]

    def walk(p: Tuple[str, ...]) -> None:
        incl, count = agg[p]
        if total and incl / total < min_frac and len(p) > 1:
            return
        self_t = incl - child_time.get(p, 0.0)
        indent = "  " * (len(p) - 1)
        lines.append(f"{incl * 1e3:>10.3f}ms {self_t * 1e3:>10.3f}ms {count:>6}  "
                     f"{indent}{p[-1]}")
        for child in sorted(kids.get(p, ()), key=lambda c: (-agg[c][0], c[-1])):
            walk(child)

    for root in sorted(kids.get((), ()), key=lambda c: (-agg[c][0], c[-1])):
        walk(root)
    return "\n".join(lines)
