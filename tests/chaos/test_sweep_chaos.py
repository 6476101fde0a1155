"""run_sweep hardening: crash isolation, resume-by-cache, crash_point."""

from __future__ import annotations

import json

import pytest

from repro.chaos import ChaosPlan
from repro.sweep import (
    SweepCache,
    SweepPoint,
    SweepPointCrash,
    error_record,
    is_error_record,
    result_digest,
    run_sweep,
)

pytestmark = pytest.mark.chaos


def ok_fn(x: int = 0) -> dict:
    return {"x": x}


def bomb_fn(x: int = 0) -> dict:
    raise RuntimeError(f"boom at {x}")


def counting_fn(x: int = 0, calls_dir: str = "") -> dict:
    """Deterministic result with an on-disk call-count side channel, so
    resume tests can prove which points were recomputed."""
    import os
    path = os.path.join(calls_dir, f"calls-{x}")
    n = int(open(path).read()) if os.path.exists(path) else 0
    with open(path, "w") as fh:
        fh.write(str(n + 1))
    return {"x": x}


def _calls(tmp_path, x: int) -> int:
    p = tmp_path / f"calls-{x}"
    return int(p.read_text()) if p.exists() else 0


class TestIsolation:
    def test_default_still_propagates(self):
        points = [SweepPoint("s", ok_fn, {"x": 0}),
                  SweepPoint("s", bomb_fn, {"x": 1})]
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(points)

    def test_isolate_yields_error_record_and_completes(self):
        points = [SweepPoint("s", ok_fn, {"x": 0}),
                  SweepPoint("s", bomb_fn, {"x": 1}),
                  SweepPoint("s", ok_fn, {"x": 2})]
        results = run_sweep(points, isolate=True)
        assert results[0] == {"x": 0} and results[2] == {"x": 2}
        assert is_error_record(results[1])
        err = results[1]["sweep_error"]
        assert err["type"] == "RuntimeError" and "boom at 1" in err["message"]

    def test_isolate_parallel_matches_serial(self):
        points = [SweepPoint("s", bomb_fn if i == 2 else ok_fn, {"x": i})
                  for i in range(4)]
        assert run_sweep(points, jobs=2, isolate=True) \
            == run_sweep(points, isolate=True)

    def test_error_records_are_never_cached(self, tmp_path):
        points = [SweepPoint("s", bomb_fn, {"x": 1})]
        cache = SweepCache(str(tmp_path))
        results = run_sweep(points, isolate=True, cache=cache)
        assert is_error_record(results[0])
        assert list(tmp_path.glob("*.json")) == []

    def test_error_record_shape(self):
        rec = error_record("s", ValueError("nope"))
        assert is_error_record(rec)
        assert not is_error_record({"x": 1})
        assert not is_error_record(42)


class TestCheckpoint:
    """Resuming an interrupted sweep is rerunning it with the same
    ``cache=``: every finished point was persisted as it landed, keyed
    by ``SweepPoint.key()`` (what ``run_sweep(checkpoint=)`` used to
    duplicate in a JSONL file)."""

    def test_resume_skips_completed_points(self, tmp_path):
        points = [SweepPoint("s", counting_fn,
                             {"x": i, "calls_dir": str(tmp_path)})
                  for i in range(3)]
        cache_dir = str(tmp_path / "cache")
        first = run_sweep(points, cache=SweepCache(cache_dir))
        assert [_calls(tmp_path, i) for i in range(3)] == [1, 1, 1]
        assert run_sweep(points, cache=SweepCache(cache_dir)) == first
        # Nothing recomputed: the cache answered every point.
        assert [_calls(tmp_path, i) for i in range(3)] == [1, 1, 1]

    def test_interrupted_sweep_resumes_where_it_left_off(self, tmp_path):
        points = [SweepPoint("s", counting_fn,
                             {"x": i, "calls_dir": str(tmp_path)})
                  for i in range(4)]
        cache_dir = str(tmp_path / "cache")
        # Simulate an interrupt after two points: only those landed.
        run_sweep(points[:2], cache=SweepCache(cache_dir))
        assert [_calls(tmp_path, i) for i in range(4)] == [1, 1, 0, 0]
        resumed = run_sweep(points, cache=SweepCache(cache_dir))
        assert resumed == [{"x": i} for i in range(4)]
        # Only the missing tail was computed.
        assert [_calls(tmp_path, i) for i in range(4)] == [1, 1, 1, 1]

    def test_parallel_resume_matches_serial(self, tmp_path):
        points = [SweepPoint("s", counting_fn,
                             {"x": i, "calls_dir": str(tmp_path)})
                  for i in range(5)]
        cache_dir = str(tmp_path / "cache")
        run_sweep(points[:2], cache=SweepCache(cache_dir))
        resumed = run_sweep(points, jobs=2, cache=SweepCache(cache_dir))
        # The fan-out computed only the three points that had not landed.
        assert [_calls(tmp_path, i) for i in range(5)] == [1, 1, 1, 1, 1]
        assert resumed == run_sweep(points) == [{"x": i} for i in range(5)]

    def test_torn_checkpoint_tail_is_skipped(self, tmp_path):
        # An interrupt that tore the last entry it was writing: the
        # entry is quarantined, and only its point is recomputed.
        points = [SweepPoint("s", counting_fn,
                             {"x": i, "calls_dir": str(tmp_path)})
                  for i in range(2)]
        cache_dir = tmp_path / "cache"
        run_sweep(points, cache=SweepCache(str(cache_dir)))
        tail = cache_dir / f"{points[1].key()}.json"
        tail.write_text(tail.read_text()[:10])
        cache = SweepCache(str(cache_dir))
        assert run_sweep(points, cache=cache) == [{"x": 0}, {"x": 1}]
        assert [_calls(tmp_path, i) for i in range(2)] == [1, 2]
        assert cache.corrupt == 1

    def test_error_records_not_checkpointed(self, tmp_path):
        points = [SweepPoint("s", bomb_fn, {"x": 1}),
                  SweepPoint("s", ok_fn, {"x": 2})]
        cache_dir = tmp_path / "cache"
        results = run_sweep(points, isolate=True,
                            cache=SweepCache(str(cache_dir)))
        assert is_error_record(results[0])
        assert [p.name for p in cache_dir.iterdir()] \
            == [f"{points[1].key()}.json"]

    def test_checkpoint_lines_are_canonical_json(self, tmp_path):
        # What a resume reads back: one checksummed envelope per point,
        # named by the point's own key, holding exactly its result.
        points = [SweepPoint("s", ok_fn, {"x": 0})]
        run_sweep(points, cache=SweepCache(str(tmp_path)))
        (entry,) = tmp_path.iterdir()
        assert entry.name == f"{points[0].key()}.json"
        obj = json.loads(entry.read_text())
        assert obj["result"] == {"x": 0}
        assert obj["sha256"] == result_digest({"x": 0})


class TestCrashPoint:
    def test_crash_point_without_isolate_raises(self):
        plan = ChaosPlan().crash_point(after_count=2)
        points = [SweepPoint("s", ok_fn, {"x": i}) for i in range(3)]
        with pytest.raises(SweepPointCrash):
            run_sweep(points, chaos=plan)

    def test_crash_point_with_isolate_serial_parallel_parity(self):
        points = [SweepPoint("s", ok_fn, {"x": i}) for i in range(4)]
        serial = run_sweep(points, isolate=True,
                           chaos=ChaosPlan().crash_point(after_count=2))
        parallel = run_sweep(points, jobs=2, isolate=True,
                             chaos=ChaosPlan().crash_point(after_count=2))
        assert serial == parallel
        assert is_error_record(serial[1])
        assert [r for i, r in enumerate(serial) if i != 1] \
            == [{"x": 0}, {"x": 2}, {"x": 3}]

    def test_crashed_point_recomputes_on_resume(self, tmp_path):
        points = [SweepPoint("s", counting_fn,
                             {"x": i, "calls_dir": str(tmp_path)})
                  for i in range(3)]
        cache_dir = str(tmp_path / "cache")
        plan = ChaosPlan().crash_point(after_count=2)
        first = run_sweep(points, isolate=True, cache=SweepCache(cache_dir),
                          chaos=plan)
        assert is_error_record(first[1])
        # The resume recomputes exactly the crashed point.
        resumed = run_sweep(points, cache=SweepCache(cache_dir))
        assert resumed == [{"x": i} for i in range(3)]
        assert [_calls(tmp_path, i) for i in range(3)] == [1, 1, 1]
