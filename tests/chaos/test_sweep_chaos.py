"""run_sweep hardening: a raising point aborts, resume-by-cache."""

from __future__ import annotations

import json

import pytest

from repro.sweep import SweepCache, SweepPoint, result_digest, run_sweep

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

    def test_parallel_sweep_propagates_too(self):
        points = [SweepPoint("s", bomb_fn if i == 2 else ok_fn, {"x": i})
                  for i in range(4)]
        with pytest.raises(RuntimeError, match="boom at 2"):
            run_sweep(points, jobs=2)


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

