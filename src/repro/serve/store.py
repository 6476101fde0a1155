"""Content-addressed result store: an LRU hot tier over the disk cache.

A :class:`ResultStore` keeps the last ``hot_capacity`` results in an
in-memory LRU dict *above* the existing sha256-keyed
:class:`repro.sweep.SweepCache` disk tier; keys are the same
``cache_key(scenario, params)`` digests everywhere, so the store, the
single-server cache and the batch sweeps all address one content space.

Probe order is hot -> disk; a disk hit is *promoted* into the hot tier
so repeated traffic stays memory-speed.  Every probe is counted per
tier in the attached :class:`~repro.obs.metrics.MetricsRegistry`
(``serve.store.probe`` faceted by ``tier``/``result``; evictions under
``serve.store.evictions``), and :meth:`stats` returns the same counts
as a JSON-friendly record.

The store is duck-compatible with :class:`SweepCache` (``get``/``put``
/``report``), so a :class:`~repro.serve.server.SimServer` accepts one
as its ``store=`` and uses it exactly like its private cache.  A
:class:`threading.Lock` guards the hot tier: the server's loop and a
caller's own threads (a test harness) may probe concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.sweep import SweepCache


class ResultStore:
    """Two-tier content-addressed result storage.

    ``cache_dir=None`` runs hot-tier-only; with a directory, the
    disk tier is a full :class:`SweepCache` — checksummed envelopes,
    atomic writes, corrupt-entry quarantine — shared with the sweeps.
    """

    def __init__(self, cache_dir: Optional[str] = None, *,
                 hot_capacity: int = 256,
                 metrics: Any = None, events: Any = None,
                 chaos: Any = None) -> None:
        if hot_capacity < 1:
            raise ValueError("hot tier needs capacity >= 1")
        self.hot_capacity = hot_capacity
        self.metrics = metrics
        self.disk: Optional[SweepCache] = (
            SweepCache(cache_dir, metrics=metrics, events=events, chaos=chaos)
            if cache_dir else None)
        self._hot: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hot_hits = 0
        self.hot_misses = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.evictions = 0
        self.puts = 0

    # -- the SweepCache-shaped API -------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        with self._lock:
            if key in self._hot:
                self._hot.move_to_end(key)
                self.hot_hits += 1
                self._probe("hot", "hit")
                return self._hot[key]
            self.hot_misses += 1
        self._probe("hot", "miss")
        if self.disk is None:
            return None
        value = self.disk.get(key)
        if value is None:
            self.disk_misses += 1
            self._probe("disk", "miss")
            return None
        self.disk_hits += 1
        self._probe("disk", "hit")
        self._admit(key, value)        # promote: disk hit -> hot entry
        return value

    def put(self, key: str, result: Any) -> None:
        self.puts += 1
        self._admit(key, result)
        if self.disk is not None:
            self.disk.put(key, result)

    def _admit(self, key: str, value: Any) -> None:
        evicted = 0
        with self._lock:
            self._hot[key] = value
            self._hot.move_to_end(key)
            while len(self._hot) > self.hot_capacity:
                self._hot.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if self.metrics is not None:
            for _ in range(evicted):
                self.metrics.inc("serve.store.evictions")

    def _probe(self, tier: str, result: str) -> None:
        if self.metrics is not None:
            self.metrics.inc("serve.store.probe", tier=tier, result=result)

    # -- reporting -----------------------------------------------------------
    @property
    def hot_size(self) -> int:
        with self._lock:
            return len(self._hot)

    def stats(self) -> Dict[str, Any]:
        """Per-tier counters, JSON-friendly."""
        hot_total = self.hot_hits + self.hot_misses
        disk_total = self.disk_hits + self.disk_misses
        return {
            "hot": {
                "capacity": self.hot_capacity,
                "size": self.hot_size,
                "hits": self.hot_hits,
                "misses": self.hot_misses,
                "hit_rate": self.hot_hits / hot_total if hot_total else 0.0,
                "evictions": self.evictions,
            },
            "disk": {
                "enabled": self.disk is not None,
                "hits": self.disk_hits,
                "misses": self.disk_misses,
                "hit_rate": self.disk_hits / disk_total if disk_total else 0.0,
                "quarantined": self.disk.corrupt if self.disk else 0,
            },
            "puts": self.puts,
        }

    def report(self) -> str:
        s = self.stats()
        line = (f"store: hot {s['hot']['hits']} hit(s) / "
                f"{s['hot']['misses']} miss(es), "
                f"{s['hot']['size']}/{s['hot']['capacity']} resident, "
                f"{s['hot']['evictions']} evicted")
        if self.disk is not None:
            line += (f"; disk {s['disk']['hits']} hit(s) / "
                     f"{s['disk']['misses']} miss(es)")
            if s["disk"]["quarantined"]:
                line += f", {s['disk']['quarantined']} quarantined"
        return line
