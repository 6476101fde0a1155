"""Unit tests for the machine cost model and presets."""

import dataclasses

import pytest

from repro.machine.model import MachineModel
from repro.machine.presets import jupiter, laptop, trinity


class TestCosts:
    def test_wire_time_intra_vs_inter(self):
        m = MachineModel()
        assert m.wire_time(True, 0) == m.intra_node_latency
        assert m.wire_time(False, 0) == m.inter_node_latency
        assert m.wire_time(False, 0) > m.wire_time(True, 0)

    def test_wire_time_scales_with_bytes(self):
        m = MachineModel()
        small = m.wire_time(False, 8)
        big = m.wire_time(False, 1 << 20)
        assert big > small
        assert big - m.inter_node_latency == pytest.approx((1 << 20) / m.inter_node_bandwidth)

    def test_nfs_load_monotonic_in_contention(self):
        m = MachineModel()
        times = [m.nfs_load_time(n) for n in (1, 8, 64, 512)]
        assert times == sorted(times)
        assert times[0] >= m.nfs_base_load

    def test_nfs_load_handles_zero_procs(self):
        m = MachineModel()
        assert m.nfs_load_time(0) == m.nfs_load_time(1)

    def test_with_nodes(self):
        m = MachineModel(num_nodes=1)
        m2 = m.with_nodes(16)
        assert m2.num_nodes == 16
        assert m.num_nodes == 1  # frozen original untouched

    def test_replace(self):
        m = MachineModel()
        m2 = m.replace(eager_limit=1)
        assert m2.eager_limit == 1
        assert m.eager_limit != 1

    def test_frozen(self):
        m = MachineModel()
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.num_nodes = 5

    def test_describe_keys(self):
        d = MachineModel(name="x").describe()
        assert d["Model"] == "x"
        assert "Inter latency" in d


class TestValidation:
    """A model can arrive as JSON, which spells NaN and Infinity."""

    @pytest.mark.parametrize("field,value", [
        ("session_subsys_init", float("nan")),
        ("inter_node_latency", float("inf")),
        ("inter_node_latency", -1e-6),
        ("eager_limit", -1),
        ("rml_max_retries", "8"),
    ])
    def test_costs_must_be_finite_and_not_negative(self, field, value):
        with pytest.raises(ValueError, match=f"MachineModel.{field} must be"):
            MachineModel(**{field: value})

    @pytest.mark.parametrize("field", ["num_nodes", "cores_per_node",
                                       "intra_node_bandwidth",
                                       "inter_node_bandwidth"])
    def test_sizes_and_bandwidths_must_be_positive(self, field):
        with pytest.raises(ValueError, match=f"MachineModel.{field} must be > 0"):
            MachineModel(**{field: 0})

    def test_zero_costs_and_every_preset_are_accepted(self):
        MachineModel(inter_node_latency=0.0, eager_limit=0, rml_max_retries=0)
        for preset in (trinity, jupiter, laptop):
            preset(4)


class TestPresets:
    def test_table1_core_counts(self):
        assert trinity(1).cores_per_node == 32   # 2x 16-core E5-2698 v3
        assert jupiter(1).cores_per_node == 28   # 2x 14-core E5-2690 v4

    def test_preset_node_scaling(self):
        assert trinity(7).num_nodes == 7

    def test_laptop_has_cheap_startup(self):
        assert laptop().nfs_base_load < trinity(1).nfs_base_load / 10

    def test_cold_costs_exceed_warm(self):
        for m in (trinity(1), jupiter(1), laptop()):
            assert m.group_client_cost_cold > m.group_client_cost_warm
            assert m.fence_client_cost_cold > m.fence_client_cost_warm
