"""The persistent run ledger (sqlite)."""

import threading

import pytest

from repro.obs.store import RunLedger
from repro.sweep import CANONICAL

pytestmark = pytest.mark.obs


@pytest.fixture
def ledger(tmp_path):
    with RunLedger(str(tmp_path / "ledger.sqlite")) as led:
        yield led


class TestRecord:
    def test_append_and_query(self, ledger):
        rid = ledger.record(kind="serve", scenario="sim", digest="abc123",
                            wall_s=0.5, trace="cli-1", ts=10.0)
        assert rid == 1
        rows = ledger.query()
        assert len(rows) == 1
        row = rows[0]
        assert row["kind"] == "serve" and row["scenario"] == "sim"
        assert row["digest"] == "abc123" and row["trace"] == "cli-1"
        assert row["cached"] is False and row["status"] == "ok"
        assert row["ts"] == 10.0

    def test_detail_round_trips_as_json(self, ledger):
        ledger.record(kind="bench", scenario="comm-dup", ts=1.0,
                      detail={"events": 1768, "speedup": 2.5})
        row = ledger.query()[0]
        assert row["detail"] == {"events": 1768, "speedup": 2.5}

    def test_detail_is_stored_canonically(self, ledger):
        detail = {"z": [1, 2.5, None], "a": {"nested": "é", "b": True}}
        ledger.record(kind="bench", scenario="s", ts=1.0, detail=detail)
        row = ledger.query()[0]
        assert CANONICAL.encode(row["detail"]) == CANONICAL.encode(detail)
        stored, = ledger._connect().execute("SELECT detail FROM runs").fetchone()
        assert stored == CANONICAL.encode(detail)

    def test_detail_that_is_not_json_raises(self, ledger):
        with pytest.raises(TypeError):
            ledger.record(kind="bench", scenario="s", detail={"when": object()})
        assert ledger.count() == 0

    def test_persists_across_instances(self, tmp_path):
        path = str(tmp_path / "l.sqlite")
        with RunLedger(path) as a:
            a.record(kind="sweep", scenario="soak", ts=1.0)
        with RunLedger(path) as b:
            assert b.count() == 1

    def test_thread_safe_writes(self, ledger):
        def write(n):
            for i in range(20):
                ledger.record(kind="serve", scenario=f"t{n}", ts=float(i))

        threads = [threading.Thread(target=write, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ledger.count() == 80


class TestQuery:
    @pytest.fixture(autouse=True)
    def seed(self, ledger):
        ledger.record(kind="serve", scenario="sim", digest="aabb", ts=1.0,
                      wall_s=0.1)
        ledger.record(kind="serve", scenario="sim", digest="aacc", ts=2.0,
                      wall_s=0.3, cached=True)
        ledger.record(kind="sweep", scenario="soak", digest="ddee", ts=3.0,
                      wall_s=0.2)
        ledger.record(kind="bench", scenario="comm-dup", ts=4.0, wall_s=0.05,
                      status="error")

    def test_filter_by_kind(self, ledger):
        assert [r["scenario"] for r in ledger.query(kind="sweep")] == ["soak"]

    def test_filter_by_scenario(self, ledger):
        assert len(ledger.query(scenario="sim")) == 2

    def test_digest_prefix_match(self, ledger):
        assert len(ledger.query(digest="aa")) == 2
        assert len(ledger.query(digest="aab")) == 1
        assert ledger.query(digest="zz") == []

    def test_since_window(self, ledger):
        assert [r["ts"] for r in ledger.query(since=3.0)] == [3.0, 4.0]

    def test_limit_keeps_newest_oldest_first(self, ledger):
        rows = ledger.query(limit=2)
        assert [r["ts"] for r in rows] == [3.0, 4.0]

    def test_trend_aggregates_per_scenario(self, ledger):
        trend = {(t["kind"], t["scenario"]): t for t in ledger.trend()}
        sim = trend[("serve", "sim")]
        assert sim["runs"] == 2 and sim["cached"] == 1 and sim["ok"] == 2
        assert sim["wall_mean_s"] == pytest.approx(0.2)
        assert sim["first_ts"] == 1.0 and sim["last_ts"] == 2.0
        assert trend[("bench", "comm-dup")]["ok"] == 0

    def test_trend_filters(self, ledger):
        assert len(ledger.trend(kind="serve")) == 1
        assert ledger.trend(since=5.0) == []
