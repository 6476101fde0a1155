"""Content-addressed result store: an in-memory LRU.

A :class:`ResultStore` keeps the last ``hot_capacity`` results, keyed
by the same ``cache_key(scenario, params)`` digests as the sweeps'
on-disk :class:`repro.sweep.SweepCache`.  It is duck-compatible with
that cache (``get``/``put``), so a :class:`~repro.serve.server.SimServer`
accepts one as its ``store=`` and uses it exactly like its private
disk cache; the server counts hits and misses itself.  A
:class:`threading.Lock` guards the dict: the server's loop and a
caller's own threads may probe concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional


class ResultStore:
    """The least recently used entry goes once ``hot_capacity`` is full."""

    def __init__(self, *, hot_capacity: int = 256) -> None:
        if hot_capacity < 1:
            raise ValueError("ResultStore needs hot_capacity >= 1")
        self.hot_capacity = hot_capacity
        self._hot: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[Any]:
        with self._lock:
            value = self._hot.get(key)
            if value is not None:
                self._hot.move_to_end(key)
            return value

    def put(self, key: str, result: Any) -> None:
        with self._lock:
            self._hot[key] = result
            self._hot.move_to_end(key)
            if len(self._hot) > self.hot_capacity:
                self._hot.popitem(last=False)
