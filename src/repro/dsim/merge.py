"""Merging per-partition traces and metrics into one logical run.

Track names in the merged trace are namespaced ``p{pid}:`` so the
per-partition timelines stay distinguishable in Perfetto (and two
partitions' ``events:faults`` tracks never collide); the canonical
normal form (:func:`repro.obs.export.canonical_chrome_trace`) strips
the prefix again when proving partitioned/serial equivalence.
Single-partition runs never pass through here — ``partitions=1``
bypasses dsim entirely, so its output stays byte-identical.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.simtime.trace import FlowEdge, Instant, Span, Tracer


def merge_tracers(parts: Iterable[Tuple[int, Tracer]]) -> Tracer:
    """One tracer from per-partition tracers with disjoint id spaces.

    Cross-partition flows arrive as two halves under the same
    (sender-allocated) fid: the full record from the sender and a
    partial ``src_track=""`` record from the receiver (see
    ``Tracer.flow_end``); they are unified here.
    """
    merged = Tracer()
    max_id = 0
    for pid, tr in parts:
        prefix = f"p{pid}:"
        for sid, s in tr.spans.items():
            merged.spans[sid] = Span(sid, prefix + s.track, s.name, s.start,
                                     s.parent, s.end, s.attrs)
            max_id = max(max_id, sid)
        for i in tr.instants:
            merged.instants.append(
                Instant(i.time, prefix + i.track, i.name, i.span, i.attrs))
        for fid, f in tr.flows.items():
            max_id = max(max_id, fid)
            if f.name == "" and f.src_track == "":
                half = FlowEdge(fid, "", "", 0.0, 0,
                                prefix + f.dst_track, f.dst_time, f.dst_span,
                                f.attrs)
            else:
                half = FlowEdge(
                    fid, f.name, prefix + f.src_track, f.src_time, f.src_span,
                    prefix + f.dst_track if f.dst_track is not None else None,
                    f.dst_time, f.dst_span, f.attrs)
            cur = merged.flows.get(fid)
            if cur is None:
                merged.flows[fid] = half
            else:
                src, dst = (cur, half) if cur.name or cur.src_track else (half, cur)
                src.dst_track = dst.dst_track
                src.dst_time = dst.dst_time
                src.dst_span = dst.dst_span
                merged.flows[fid] = src
    merged._next_sid = merged._next_fid = max_id + 1
    return merged


def adopt_tracer(target: Tracer, merged: Tracer) -> None:
    """Transplant a merged tracer's contents into a caller-owned tracer
    (for call sites that attached their own Tracer object up front)."""
    target.spans = merged.spans
    target.instants = merged.instants
    target.flows = merged.flows
    target._stacks = {}
    target._next_sid = merged._next_sid
    target._next_fid = merged._next_fid


def merge_metrics(dumps: List[Optional[tuple]],
                  merged_tracer: Optional[Tracer]) -> MetricsRegistry:
    """Sum counters/gauges and concatenate histograms across partitions.

    Every structural gauge the workers snapshot is a per-partition
    share of a global count (non-owner replicas contribute zero), so
    summing reproduces the single-process snapshot.  The two exceptions
    are ``obs.spans``/``obs.flows``: per-partition flow tables count
    each cross-partition flow's two halves twice, so they are re-set
    from the merged tracer.
    """
    m = MetricsRegistry()
    m.enabled = True
    for dump in dumps:
        if dump is None:
            continue
        counters, gauges, hists = dump
        for k, v in counters.items():
            m.counters[k] = m.counters.get(k, 0.0) + v
        for k, v in gauges.items():
            m.gauges[k] = m.gauges.get(k, 0.0) + v
        for k, (values, count, total, mn, mx) in hists.items():
            h = m.histograms.get(k)
            if h is None:
                h = m.histograms[k] = Histogram()
            h.values.extend(values)
            h._count += count
            h._total += total
            h._min = min(h._min, mn)
            h._max = max(h._max, mx)
    if merged_tracer is not None:
        m.set("obs.spans", len(merged_tracer.spans), force=True)
        m.set("obs.flows", len(merged_tracer.flows), force=True)
    return m


def merge_counters(blobs: List[dict]) -> Dict[str, object]:
    """Sum the raw layer counters shipped in worker result blobs."""
    out: Dict[str, object] = {}
    for blob in blobs:
        for k, v in blob["counters"].items():
            if isinstance(v, dict):
                slot = out.setdefault(k, {})
                for kk, vv in v.items():
                    slot[kk] = slot.get(kk, 0) + vv
            else:
                out[k] = out.get(k, 0) + v
    return out
