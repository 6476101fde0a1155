"""The in-memory result store: LRU order and eviction."""

from __future__ import annotations

import pytest

from repro.serve import ResultStore

pytestmark = pytest.mark.serve


class TestResultStore:
    def test_hot_tier_hit_and_eviction_accounting(self):
        store = ResultStore(hot_capacity=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1                  # a is now most-recent
        store.put("c", 3)                           # evicts b (LRU)
        assert store.get("b") is None
        assert store.get("a") == 1 and store.get("c") == 3
        store.put("a", 4)                           # a re-put replaces
        store.put("d", 5)                           # evicts c
        assert [store.get(k) for k in "abcd"] == [4, None, None, 5]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultStore(hot_capacity=0)
