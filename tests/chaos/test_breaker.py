"""The server circuit breaker: trip, degraded cache-only mode, half-open."""

from __future__ import annotations

import time

import pytest

from repro.chaos import degraded_run
from repro.serve import ServeClient, ServerThread
from tests._pipeline import pipelined, submit

pytestmark = pytest.mark.chaos


def _flaky(client: ServeClient, state_dir, key: str) -> dict:
    """One guaranteed hard worker death (no retry budget on the server)."""
    return client.submit("flaky", {"state_dir": str(state_dir), "key": key,
                                   "crashes": 9})


def _server(tmp_path, **kw):
    kw.setdefault("workers", 1)
    kw.setdefault("retry_limit", 0)
    kw.setdefault("breaker_threshold", 2)
    kw.setdefault("breaker_cooldown_s", 3600.0)
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return ServerThread(**kw)


class TestTrip:
    def test_consecutive_deaths_trip_the_breaker(self, tmp_path):
        with _server(tmp_path) as srv:
            with ServeClient(srv.address) as client:
                assert client.health()["degraded"] is False
                assert _flaky(client, tmp_path, "a")["status"] == "error"
                assert client.health()["degraded"] is False    # 1 < threshold
                assert _flaky(client, tmp_path, "b")["status"] == "error"
                health = client.health()
                assert health["degraded"] is True
                assert health["breaker"]["trips"] == 1
                assert health["breaker"]["consecutive_deaths"] == 2
            assert srv.server.stats.breaker_trips == 1
            assert srv.server.metrics.value("serve.breaker.trips") == 1

    def test_success_resets_the_death_streak(self, tmp_path):
        with _server(tmp_path) as srv:
            with ServeClient(srv.address) as client:
                assert _flaky(client, tmp_path, "a")["status"] == "error"
                assert client.submit("sleep",
                                     {"seconds": 0.0})["status"] == "ok"
                assert _flaky(client, tmp_path, "b")["status"] == "error"
                # Never 2 *consecutive* deaths: breaker stays closed.
                assert client.health()["degraded"] is False
            assert srv.server.stats.breaker_trips == 0


class TestDegradedMode:
    def test_cache_only_service_while_degraded(self, tmp_path):
        with _server(tmp_path) as srv:
            with ServeClient(srv.address) as client:
                warm = client.submit("sleep", {"seconds": 0.0, "tag": "w"})
                assert warm["status"] == "ok"
                _flaky(client, tmp_path, "a")
                _flaky(client, tmp_path, "b")
                assert client.health()["degraded"] is True
                # Cached: still served, from the cache.
                hit = client.submit("sleep", {"seconds": 0.0, "tag": "w"})
                assert hit["status"] == "ok" and hit["cached"] is True
                # Uncached: rejected with a degraded reason, not crashed.
                miss = client.submit("sleep", {"seconds": 0.0, "tag": "m"})
                assert miss["status"] == "rejected"
                assert miss["reason"].startswith("degraded")
            assert srv.server.stats.degraded_rejects == 1

    def test_degraded_visible_in_stats_snapshot(self, tmp_path):
        with _server(tmp_path) as srv:
            with ServeClient(srv.address) as client:
                _flaky(client, tmp_path, "a")
                _flaky(client, tmp_path, "b")
                stats = client.stats()["stats"]
                assert stats["degraded"] is True
                assert stats["breaker_trips"] == 1


class TestHalfOpen:
    def test_cooldown_reopens_admission(self, tmp_path):
        with _server(tmp_path, breaker_cooldown_s=0.2) as srv:
            with ServeClient(srv.address) as client:
                _flaky(client, tmp_path, "a")
                _flaky(client, tmp_path, "b")
                assert client.health()["degraded"] is True
                time.sleep(0.25)
                # Half-open: the probe request reaches the pool again.
                r = client.submit("sleep", {"seconds": 0.0})
                assert r["status"] == "ok"
                assert client.health()["degraded"] is False

    def test_death_during_half_open_retrips_immediately(self, tmp_path):
        with _server(tmp_path, breaker_cooldown_s=0.2) as srv:
            with ServeClient(srv.address) as client:
                _flaky(client, tmp_path, "a")
                _flaky(client, tmp_path, "b")
                time.sleep(0.25)
                assert _flaky(client, tmp_path, "c")["status"] == "error"
                assert client.health()["degraded"] is True
            assert srv.server.stats.breaker_trips == 2


def _twin_submits(address):
    """Two identical ``sleep`` submits pipelined on one connection."""
    twin = submit("sleep", {"seconds": 0.1, "tag": "sf"})
    return pipelined(address, [twin, twin])


class TestSingleFlight:
    def test_concurrent_same_key_submits_coalesce(self, tmp_path):
        with _server(tmp_path, retry_limit=2) as srv:
            r1, r2 = _twin_submits(srv.address)
            assert r1["status"] == r2["status"] == "ok"
            assert r1["result"] == r2["result"]
            coalesced = [r.get("coalesced", False) for r in (r1, r2)]
            assert sorted(coalesced) == [False, True]
            stats = srv.server.stats
            assert stats.coalesced == 1
            # The scenario ran exactly once; the twin never reached a worker.
            assert srv.server.metrics.merged_histogram("serve.run").count == 1

    def test_coalesces_without_a_store(self):
        """Single-flight keys every submit, not only cached ones: with
        no store attached and a free second worker, the twin still
        waits on the leader instead of running again."""
        with ServerThread(workers=2) as srv:
            r1, r2 = _twin_submits(srv.address)
            assert r1["status"] == r2["status"] == "ok"
            assert r1["result"] == r2["result"]
            assert srv.server.stats.coalesced == 1
            assert srv.server.metrics.merged_histogram("serve.run").count == 1


class TestAcceptanceScenario:
    def test_degraded_run_completes_instead_of_crashing(self, tmp_path):
        record = degraded_run(str(tmp_path))
        assert record["ok"], record
        assert record["quarantined"] is True
        assert record["reject_reason"].startswith("degraded")
