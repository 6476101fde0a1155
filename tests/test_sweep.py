"""The parallel sweep executor and its on-disk cache (repro.sweep)."""

from __future__ import annotations

import json

from repro.bench.perf import comm_dup
from repro.sweep import (
    SweepCache,
    SweepPoint,
    cache_key,
    run_sweep,
    source_digest,
)


def test_source_digest_is_stable_and_hex():
    assert source_digest() == source_digest()
    assert len(source_digest()) == 64
    int(source_digest(), 16)    # hex


def test_cache_key_sensitivity():
    base = cache_key("scenario", {"x": 1})
    assert base == cache_key("scenario", {"x": 1})
    assert base != cache_key("scenario", {"x": 2})
    assert base != cache_key("other", {"x": 1})


def test_cache_key_param_order_insensitive():
    assert cache_key("s", {"a": 1, "b": 2}) == cache_key("s", {"b": 2, "a": 1})


def test_cache_roundtrip_and_accounting(tmp_path):
    cache = SweepCache(str(tmp_path))
    key = cache_key("s", {"p": 1})
    assert cache.get(key) is None
    assert (cache.hits, cache.misses) == (0, 1)
    cache.put(key, {"value": [1, 2]})
    assert cache.get(key) == {"value": [1, 2]}
    assert (cache.hits, cache.misses) == (1, 1)
    assert "1 hit(s), 1 miss(es)" in cache.report()


def test_cache_tolerates_corrupt_entries(tmp_path):
    cache = SweepCache(str(tmp_path))
    key = cache_key("s", {})
    (tmp_path / f"{key}.json").write_text("{not json")
    assert cache.get(key) is None    # treated as a miss, recomputed
    # ... and quarantined, so it cannot fail again every run.
    assert not (tmp_path / f"{key}.json").exists()
    assert (tmp_path / f"{key}.json.corrupt").exists()
    assert cache.corrupt == 1
    assert "1 corrupt" in cache.report()


def _points(deltas=(5, 10, 15, 20)):
    return [
        SweepPoint("comm-dup", comm_dup, {"procs": 2, "dups": d})
        for d in deltas
    ]


def test_run_sweep_serial_parallel_and_cached_agree(tmp_path):
    points = _points()
    serial = run_sweep(points, jobs=1)
    assert all(isinstance(ev, int) and ev > 0 for ev in serial)
    assert run_sweep(points, jobs=2) == serial

    cache = SweepCache(str(tmp_path))
    assert run_sweep(points, jobs=2, cache=cache) == serial
    assert (cache.hits, cache.misses) == (0, len(points))
    assert run_sweep(points, jobs=1, cache=cache) == serial
    assert (cache.hits, cache.misses) == (len(points), len(points))


def test_run_sweep_preserves_input_order_with_partial_hits(tmp_path):
    points = _points()
    cache = SweepCache(str(tmp_path))
    serial = run_sweep(points, jobs=1, cache=cache)
    # Evict the middle entries: the next run mixes hits and computes.
    for pt in points[1:3]:
        (tmp_path / f"{pt.key()}.json").unlink()
    mixed_cache = SweepCache(str(tmp_path))
    assert run_sweep(points, jobs=2, cache=mixed_cache) == serial
    assert (mixed_cache.hits, mixed_cache.misses) == (2, 2)


def test_sweep_point_key_matches_cache_key():
    pt = SweepPoint("s", comm_dup, {"procs": 4})
    assert pt.key() == cache_key("s", {"procs": 4})


def test_cached_payloads_are_canonical_checksummed_json(tmp_path):
    from repro.sweep import ENVELOPE_KEY, ENVELOPE_VERSION, result_digest

    cache = SweepCache(str(tmp_path))
    key = cache_key("s", {})
    cache.put(key, {"b": 2, "a": 1})
    raw = (tmp_path / f"{key}.json").read_text()
    assert raw == json.dumps({ENVELOPE_KEY: ENVELOPE_VERSION,
                              "result": {"a": 1, "b": 2},
                              "sha256": result_digest({"a": 1, "b": 2})},
                             sort_keys=True)
