"""Metrics registry: counters, gauges, histograms with label aggregation.

Metrics are keyed by ``(name, labels)`` where ``labels`` is a sorted
tuple of ``(key, value)`` pairs — e.g. ``("pml.bytes", (("node", 1),))``.
Aggregation across label dimensions (per-process -> per-node ->
cluster-wide) is a query-time fold, so instrumentation sites only ever
record at the finest granularity they know.

Everything is deterministic: insertion order never affects output
(tables render in sorted key order), histogram percentiles use sorted
linear interpolation, and no wall clock or PRNG is touched.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, Any], ...]]

#: ``(name, labels, value)`` counter samples read from a record kept
#: outside the registry (``MetricsRegistry(collect=)``).
Samples = Iterable[Tuple[str, Dict[str, Any], float]]


def _key(name: str, labels: Dict[str, Any]) -> LabelKey:
    return (name, tuple(sorted(labels.items())))


class Histogram:
    """Raw-sample histogram with exact interpolated percentiles.

    By default every sample is kept and percentiles are exact.  With
    ``max_samples`` set, the raw list is bounded: below the cap,
    behavior is identical (exact percentiles); past it, samples go
    through a seeded reservoir (Vitter's Algorithm R), so memory stays
    O(cap) under unbounded traffic (a long-lived serve loadgen) while
    ``count``/``total``/``mean``/``min``/``max`` remain exact running
    aggregates.  The reservoir PRNG is seeded, so summaries are a
    deterministic function of the observation sequence.
    """

    __slots__ = ("values", "max_samples", "_seed", "_rng",
                 "_count", "_total", "_min", "_max")

    def __init__(self, max_samples: Optional[int] = None,
                 seed: int = 0) -> None:
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.values: List[float] = []
        self.max_samples = max_samples
        self._seed = seed
        self._rng: Optional[random.Random] = None
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self.max_samples is None or len(self.values) < self.max_samples:
            self.values.append(value)
            return
        # Reservoir (Algorithm R): keep each of the n samples seen so
        # far with probability cap/n, deterministically via the seed.
        if self._rng is None:
            self._rng = random.Random(self._seed)
        j = self._rng.randrange(self._count)
        if j < self.max_samples:
            self.values[j] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Interpolated percentile, ``p`` in [0, 100]."""
        return _interpolate(sorted(self.values), p)

    def summary(self) -> Dict[str, float]:
        if not self._count:
            return {"count": 0}
        ordered = sorted(self.values)
        return {
            "count": self._count,
            "min": self._min,
            "max": self._max,
            "mean": self.mean,
            "p50": _interpolate(ordered, 50),
            "p90": _interpolate(ordered, 90),
            "p99": _interpolate(ordered, 99),
        }


def _interpolate(ordered: List[float], p: float) -> float:
    """Interpolated percentile ``p`` of sorted samples (0.0 if none)."""
    if not ordered:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile out of range: {p}")
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class MetricsRegistry:
    """Counters, gauges and histograms for one cluster.

    Disabled by default: live ``inc``/``set``/``observe`` calls cost one
    branch.  Snapshot-style harvesting (:func:`snapshot_cluster`) calls
    the ``force=True`` variants so an end-of-run report works even when
    live collection was off.

    ``collect``, when given, returns counters whose one record is kept
    elsewhere; every query reads them as if they had been ``inc``-ed
    here (a zero is a counter never incremented, so it is absent).
    """

    def __init__(self, enabled: bool = False,
                 histogram_max_samples: Optional[int] = None,
                 reservoir_seed: int = 0,
                 collect: Optional[Callable[[], Samples]] = None) -> None:
        self.enabled = enabled
        self.histogram_max_samples = histogram_max_samples
        self.reservoir_seed = reservoir_seed
        self.collect = collect
        self.counters: Dict[LabelKey, float] = {}
        self.gauges: Dict[LabelKey, float] = {}
        self.histograms: Dict[LabelKey, Histogram] = {}

    # -- recording ----------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, *, force: bool = False,
            **labels: Any) -> None:
        if not (self.enabled or force):
            return
        key = _key(name, labels)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def set(self, name: str, value: float, *, force: bool = False,
            **labels: Any) -> None:
        if not (self.enabled or force):
            return
        self.gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float, *, force: bool = False,
                **labels: Any) -> None:
        if not (self.enabled or force):
            return
        key = _key(name, labels)
        hist = self.histograms.get(key)
        if hist is None:
            # Per-key seed: deterministic (crc32, not hash()) and
            # distinct across label sets, so bounded reservoirs don't
            # correlate their sampling decisions.
            hist = self.histograms[key] = Histogram(
                self.histogram_max_samples,
                seed=self.reservoir_seed ^ zlib.crc32(repr(key).encode()))
        hist.observe(value)

    # -- queries ------------------------------------------------------------
    def all_counters(self) -> Dict[LabelKey, float]:
        """The counters recorded here and those ``collect`` reads."""
        if self.collect is None:
            return self.counters
        merged = dict(self.counters)
        for name, labels, value in self.collect():
            if value:
                merged[_key(name, labels)] = float(value)
        return merged

    def names(self) -> List[str]:
        """Sorted distinct metric names across all kinds."""
        seen = {k[0] for k in self.all_counters()}
        seen.update(k[0] for k in self.gauges)
        seen.update(k[0] for k in self.histograms)
        return sorted(seen)

    def value(self, name: str, **labels: Any) -> Optional[float]:
        key = _key(name, labels)
        counters = self.all_counters()
        if key in counters:
            return counters[key]
        if key in self.gauges:
            return self.gauges[key]
        return None

    def histogram(self, name: str, **labels: Any) -> Optional[Histogram]:
        return self.histograms.get(_key(name, labels))

    def aggregate(self, name: str, by: Optional[str] = None) -> Dict[Any, float]:
        """Sum a counter/gauge across labels.

        ``by=None`` folds everything into ``{"total": x}`` (cluster-wide);
        ``by="node"`` returns per-node sums, etc.
        """
        out: Dict[Any, float] = {}
        for store in (self.all_counters(), self.gauges):
            for (n, labels), v in store.items():
                if n != name:
                    continue
                group = "total" if by is None else dict(labels).get(by, "total")
                out[group] = out.get(group, 0.0) + v
        return out

    def merged_histogram(self, name: str) -> Histogram:
        """All samples for ``name`` across every label set.

        Label sets merge in sorted key order (deterministic), and the
        exact running aggregates (count/total/min/max) merge exactly
        even when the per-label histograms are bounded reservoirs.
        """
        merged = Histogram()
        for key in sorted(self.histograms):
            if key[0] != name:
                continue
            hist = self.histograms[key]
            merged.values.extend(hist.values)
            merged._count += hist._count
            merged._total += hist._total
            merged._min = min(merged._min, hist._min)
            merged._max = max(merged._max, hist._max)
        return merged

    # -- rendering ----------------------------------------------------------
    @staticmethod
    def _label_str(labels: Iterable[Tuple[str, Any]]) -> str:
        items = list(labels)
        if not items:
            return ""
        return "{" + ",".join(f"{k}={v}" for k, v in items) + "}"

    @staticmethod
    def _num(v: float) -> str:
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return f"{v:.6g}"

    def rows(self) -> List[Tuple[str, str, str]]:
        """Deterministic (name+labels, kind, rendered value) rows."""
        out: List[Tuple[str, str, str]] = []
        counters = self.all_counters()
        for key in sorted(counters):
            out.append((key[0] + self._label_str(key[1]), "counter",
                        self._num(counters[key])))
        for key in sorted(self.gauges):
            out.append((key[0] + self._label_str(key[1]), "gauge",
                        self._num(self.gauges[key])))
        for key in sorted(self.histograms):
            s = self.histograms[key].summary()
            if s["count"] == 0:
                rendered = "count=0"
            else:
                rendered = (f"count={s['count']} mean={self._num(s['mean'])} "
                            f"p50={self._num(s['p50'])} p90={self._num(s['p90'])} "
                            f"p99={self._num(s['p99'])} max={self._num(s['max'])}")
            out.append((key[0] + self._label_str(key[1]), "histogram", rendered))
        out.sort()
        return out

    def render(self) -> str:
        rows = self.rows()
        if not rows:
            return "(no metrics recorded)"
        w_name = max(len(r[0]) for r in rows)
        w_kind = max(len(r[1]) for r in rows)
        lines = [f"{name:<{w_name}}  {kind:<{w_kind}}  {value}"
                 for name, kind, value in rows]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dump, deterministically ordered."""
        out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        counters = self.all_counters()
        for key in sorted(counters):
            out["counters"][key[0] + self._label_str(key[1])] = counters[key]
        for key in sorted(self.gauges):
            out["gauges"][key[0] + self._label_str(key[1])] = self.gauges[key]
        for key in sorted(self.histograms):
            out["histograms"][key[0] + self._label_str(key[1])] = \
                self.histograms[key].summary()
        return out


def snapshot_cluster(metrics: MetricsRegistry, cluster, world=None) -> None:
    """Harvest structural counters the layers already keep into the
    registry (``force=True``: works even with live collection off)."""
    m = metrics
    m.set("simtime.events", cluster.engine.events_executed, force=True)
    tr = cluster.engine.tracer
    m.set("obs.spans", len(tr.spans), force=True)
    m.set("obs.flows", len(tr.flows), force=True)

    rml = cluster.dvm.rml
    m.set("rml.messages", rml.messages_sent, force=True)
    m.set("rml.bytes", rml.bytes_sent, force=True)
    m.set("rml.dropped", getattr(rml, "dropped", 0), force=True)
    m.set("prrte.pgcid.allocated", cluster.dvm.pgcids_allocated, force=True)

    for kind, n in sorted(cluster.faults.stats.items()):
        m.set(f"faults.{kind}", n, force=True)

    # Recovery-layer counters (docs/recovery.md).  Gated on the cluster
    # actually being in recovery mode so non-recovery snapshots stay
    # byte-identical to what they were before the layer existed.
    if getattr(cluster, "recovery", False):
        m.set("recovery.rml.retransmits", rml.retransmits, force=True)
        m.set("recovery.rml.acks", rml.acks_sent, force=True)
        m.set("recovery.rml.dup_suppressed", rml.dup_suppressed, force=True)
        m.set("recovery.rml.retry_exhausted", rml.retry_exhausted, force=True)
        m.set("recovery.heal.reparents",
              sum(d.heals for d in cluster.dvm.daemons), force=True)
        m.set("recovery.grpcomm.restarts",
              sum(d.grpcomm.restarts for d in cluster.dvm.daemons), force=True)
        m.set("recovery.fence.retries", cluster.dvm.fence_retries, force=True)
        for kind in sorted(cluster.recovery_stats):
            m.set(f"recovery.{kind}", cluster.recovery_stats[kind], force=True)

    if world is not None:
        fabric = world.fabric
        m.set("pml.packets", getattr(fabric, "packets", 0), force=True)
        m.set("pml.bytes", getattr(fabric, "bytes", 0), force=True)
        for rt in world.runtimes:
            ep = getattr(rt, "endpoint", None)
            if ep is not None:
                ep.harvest_metrics(m, force=True)
