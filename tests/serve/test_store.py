"""The two-tier result store: LRU accounting, promotion, eviction."""

from __future__ import annotations

import pytest

from repro.serve import ResultStore

pytestmark = pytest.mark.serve


class TestResultStore:
    def test_hot_tier_hit_and_eviction_accounting(self):
        store = ResultStore(None, hot_capacity=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1                  # a is now most-recent
        store.put("c", 3)                           # evicts b (LRU)
        assert store.get("b") is None
        assert store.get("a") == 1 and store.get("c") == 3
        stats = store.stats()
        assert stats["hot"]["evictions"] == 1
        assert stats["hot"]["hits"] == 3 and stats["hot"]["misses"] == 1
        assert stats["hot"]["size"] == 2
        assert stats["puts"] == 3
        assert stats["disk"]["enabled"] is False

    def test_disk_hit_promotes_into_hot_tier(self, tmp_path):
        store = ResultStore(str(tmp_path), hot_capacity=4)
        store.put("k", {"x": 1})
        # Evict the hot copy; the disk tier still holds it.
        for i in range(4):
            store.put(f"fill-{i}", i)
        assert store.hot_size == 4
        value = store.get("k")
        assert value == {"x": 1}
        stats = store.stats()
        assert stats["disk"]["hits"] == 1
        # Promoted: the next probe hits the hot tier, not the disk.
        assert store.get("k") == {"x": 1}
        assert store.stats()["hot"]["hits"] == stats["hot"]["hits"] + 1
        assert store.stats()["disk"]["hits"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultStore(None, hot_capacity=0)
