"""Cache robustness: checksummed envelopes, quarantine, chaos writes."""

from __future__ import annotations

import json

import pytest

from repro.chaos import ChaosPlan
from repro.obs.metrics import MetricsRegistry
from repro.sweep import (
    ENVELOPE_KEY,
    ENVELOPE_VERSION,
    SweepCache,
    SweepPoint,
    cache_key,
    result_digest,
    run_sweep,
)

pytestmark = pytest.mark.chaos


def point_fn(x: int = 0) -> dict:
    return {"x": x, "y": x * x}


def _points(n=4):
    return [SweepPoint("chaos-cache", point_fn, {"x": i}) for i in range(n)]


class TestChecksumEnvelope:
    def test_round_trip(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        key = cache_key("s", {"p": 1})
        cache.put(key, {"v": [1, 2]})
        assert cache.get(key) == {"v": [1, 2]}
        entry = json.loads((tmp_path / f"{key}.json").read_text())
        assert entry[ENVELOPE_KEY] == ENVELOPE_VERSION
        assert entry["sha256"] == result_digest({"v": [1, 2]})

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        key = cache_key("s", {})
        cache.put(key, {"v": 1})
        path = tmp_path / f"{key}.json"
        entry = json.loads(path.read_text())
        entry["result"] = {"v": 2}      # tampered payload, stale checksum
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None
        assert not path.exists()
        assert (tmp_path / f"{key}.json.corrupt").exists()
        assert cache.corrupt == 1

    def test_missing_envelope_is_quarantined(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        key = cache_key("s", {})
        (tmp_path / f"{key}.json").write_text(json.dumps({"v": 1}))
        assert cache.get(key) is None
        assert (tmp_path / f"{key}.json.corrupt").exists()

    def test_absent_entry_is_a_plain_miss_not_corruption(self, tmp_path):
        cache = SweepCache(str(tmp_path))
        assert cache.get(cache_key("s", {})) is None
        assert (cache.misses, cache.corrupt) == (1, 0)

    def test_quarantine_counts_a_metric(self, tmp_path):
        metrics = MetricsRegistry(enabled=True)
        cache = SweepCache(str(tmp_path), metrics=metrics)
        key = cache_key("s", {})
        (tmp_path / f"{key}.json").write_text("torn{")
        assert cache.get(key) is None
        assert metrics.value("sweep.cache.corrupt") == 1
        assert (tmp_path / f"{key}.json.corrupt").exists()


class TestChaosWrites:
    def test_torn_write_fails_once_then_recomputes(self, tmp_path):
        plan = ChaosPlan().torn_write(after_count=1)
        cache = SweepCache(str(tmp_path), chaos=plan)
        key = cache_key("s", {})
        cache.put(key, {"v": 1})
        raw = (tmp_path / f"{key}.json").read_text()
        with pytest.raises(ValueError):
            json.loads(raw)             # genuinely torn on disk
        assert cache.get(key) is None   # quarantined...
        cache.put(key, {"v": 1})        # ...recomputed write is clean
        assert cache.get(key) == {"v": 1}
        assert plan.stats == {"torn_write": 1}

    def test_corrupt_write_is_rejected_by_checksum(self, tmp_path):
        plan = ChaosPlan().corrupt_cache(after_count=1)
        cache = SweepCache(str(tmp_path), chaos=plan)
        key = cache_key("s", {})
        cache.put(key, {"value": "a" * 64})
        assert cache.get(key) is None
        assert cache.corrupt == 1


class TestSweepParityUnderCorruption:
    def test_parallel_sweep_byte_parity_with_corrupt_entry_mid_sweep(
            self, tmp_path):
        """A cache entry corrupted between two sweeps must be
        quarantined and recomputed — parallel results stay
        byte-identical to the clean serial run."""
        points = _points()
        clean = run_sweep(points)
        cache = SweepCache(str(tmp_path))
        assert run_sweep(points, jobs=2, cache=cache) == clean
        # Corrupt one entry on disk "mid-sweep" (between populating and
        # re-reading, as a racing writer death would).
        victim = tmp_path / f"{points[1].key()}.json"
        victim.write_text(victim.read_text()[:20])
        reread = SweepCache(str(tmp_path))
        assert run_sweep(points, jobs=2, cache=reread) == clean
        assert reread.corrupt == 1
        assert (reread.hits, reread.misses) == (3, 1)
        # And the recompute healed the cache for the next run.
        healed = SweepCache(str(tmp_path))
        assert run_sweep(points, jobs=2, cache=healed) == clean
        assert healed.hits == 4

    def test_injected_corruption_during_sweep_holds_parity(self, tmp_path):
        points = _points()
        clean = run_sweep(points)
        plan = ChaosPlan().corrupt_cache(after_count=2).torn_write(
            after_count=3)
        damaged = SweepCache(str(tmp_path), chaos=plan)
        assert run_sweep(points, jobs=2, cache=damaged) == clean
        reread = SweepCache(str(tmp_path))
        assert run_sweep(points, jobs=2, cache=reread) == clean
        assert reread.corrupt == 2
