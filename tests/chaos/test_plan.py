"""The chaos plan model (repro.chaos): actions, counting, determinism."""

from __future__ import annotations

import pytest

from repro.chaos import (
    KINDS,
    SITE_OF,
    ChaosAction,
    ChaosPlan,
    chaos_plan,
)
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.chaos


class TestChaosAction:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosAction("set_on_fire")

    def test_hang_needs_delay(self):
        with pytest.raises(ValueError, match="delay"):
            ChaosAction("hang_worker")
        ChaosAction("hang_worker", delay=0.01)   # fine

    def test_drop_conn_phase_validation(self):
        with pytest.raises(ValueError, match="phase"):
            ChaosAction("drop_conn", phase="before")
        for phase in ("mid", "after"):
            ChaosAction("drop_conn", phase=phase)

    def test_after_count_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            ChaosAction("kill_worker", after_count=0)

    def test_every_kind_has_a_site(self):
        assert set(SITE_OF) == set(KINDS)

    def test_fires_on_exactly_the_nth_operation(self):
        act = ChaosAction("kill_worker", after_count=3)
        assert [act.observe() for _ in range(5)] == [
            False, False, True, False, False]
        assert (act.seen, act.hits) == (5, 1)

    def test_max_hits_budget_without_count(self):
        act = ChaosAction("kill_worker", max_hits=2)
        assert [act.observe() for _ in range(4)] == [True, True, False, False]

    def test_unlimited_hits(self):
        act = ChaosAction("kill_worker", max_hits=None)
        assert all(act.observe() for _ in range(10))

    def test_scenario_filter_does_not_count_others(self):
        act = ChaosAction("kill_worker", after_count=2, scenario="sim")
        assert act.observe("sleep") is False
        assert act.seen == 0                     # non-matching ops don't count
        assert act.observe("sim") is False
        assert act.observe("sim") is True


class TestChaosPlan:
    def test_on_counts_and_fires_per_site(self):
        plan = ChaosPlan().kill_worker(after_count=2).torn_write(after_count=1)
        assert plan.on("worker.call") == []
        fired = plan.on("worker.call")
        assert [a.kind for a in fired] == ["kill_worker"]
        assert [a.kind for a in plan.on("cache.put")] == ["torn_write"]
        assert plan.stats == {"kill_worker": 1, "torn_write": 1}
        assert plan.injected == 2

    def test_convenience_constructors_chain(self):
        plan = (ChaosPlan().kill_worker().hang_worker(0.01).break_pipe()
                .drop_conn("after").corrupt_cache().torn_write())
        assert len(plan) == 6
        assert "drop_conn" in plan.describe()

    def test_add_rejects_non_actions(self):
        with pytest.raises(TypeError):
            ChaosPlan().add("kill_worker")

    def test_attached_recorders_see_injections(self, tmp_path):
        metrics = MetricsRegistry(enabled=True)
        log_path = str(tmp_path / "events.jsonl")
        events = EventLog(log_path)
        plan = ChaosPlan().kill_worker(after_count=1)
        plan.attach(metrics=metrics, events=events)
        plan.on("worker.call", scenario="sim", wid=3)
        events.close()
        assert metrics.value("chaos.injected",
                             kind="kill_worker", site="worker.call") == 1
        recorded = EventLog.read(log_path)
        assert len(recorded) == 1
        assert recorded[0]["event"] == "chaos.injected"
        assert recorded[0]["kind"] == "kill_worker"
        assert recorded[0]["wid"] == 3


class TestSeededPlan:
    def test_same_seed_same_plan(self):
        a, b = chaos_plan(7), chaos_plan(7)
        assert a.describe() == b.describe()
        assert chaos_plan(8).describe() != a.describe()

    @pytest.mark.parametrize("kw, sha", [
        ({}, "d03dd6227359adbb153aeb6e28dcb88d"
             "ad085e228e86df9fc31a9cf9c2d7490b"),
        ({"n_actions": 8}, "410fd771134d5fad8032892ef54a0633"
                           "1ae0c91c6f526f6bf90dd84bb242a512"),
    ], ids=["default", "n_actions=8"])
    def test_seeded_plans_are_pinned(self, kw, sha):
        """Seeds 0..199 name the same plans forever: editing KINDS or
        SITES must not reshuffle what an existing soak seed injects."""
        import hashlib
        text = "\n".join(chaos_plan(s, **kw).describe() for s in range(200))
        assert hashlib.sha256(text.encode()).hexdigest() == sha

    def test_budgets_hold_over_many_seeds(self):
        for seed in range(40):
            plan = chaos_plan(seed, n_actions=8)
            kinds = [act.kind for act in plan.actions]
            kills = sum(1 for k in kinds
                        if k in ("kill_worker", "break_pipe"))
            drops = sum(1 for k in kinds if k == "drop_conn")
            assert kills <= 2 and drops <= 2

    def test_actions_pin_distinct_operation_indexes(self):
        for seed in range(40):
            plan = chaos_plan(seed, n_actions=8)
            by_site = {}
            for act in plan.actions:
                by_site.setdefault(act.site, []).append(act.after_count)
            for site, counts in by_site.items():
                assert len(counts) == len(set(counts)), (seed, site)

    def test_kinds_restriction(self):
        plan = chaos_plan(3, kinds=("corrupt_cache", "torn_write"),
                          n_actions=6)
        assert {a.kind for a in plan.actions} <= {"corrupt_cache",
                                                  "torn_write"}
