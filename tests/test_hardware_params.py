"""Unit tests for BGPParams and the memory model."""

from dataclasses import replace

import pytest

from repro.hardware.memory import MemoryModel
from repro.hardware.params import BGPParams
from repro.util.units import MIB


class TestBGPParams:
    def test_defaults_valid(self):
        p = BGPParams()
        assert p.cores_per_node == 4
        assert p.torus_link_bw == 425.0
        assert p.tree_link_bw == 850.0
        assert p.l3_bytes == 8 * MIB

    def test_with_overrides(self):
        base = BGPParams()
        p = replace(base, pipeline_width=32 * 1024)
        assert p.pipeline_width == 32 * 1024
        # original untouched (frozen dataclass)
        assert base.pipeline_width == 64 * 1024
        # the copy is validated like a fresh instance
        with pytest.raises(ValueError):
            replace(base, torus_link_bw=0.0)

    def test_invalid_positive_field_rejected(self):
        with pytest.raises(ValueError):
            BGPParams(torus_link_bw=0.0)

    def test_invalid_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            BGPParams(tree_hop_latency=-0.1)

    def test_dram_faster_than_l3_rejected(self):
        with pytest.raises(ValueError):
            BGPParams(mem_bw_l3=100.0, mem_bw_dram=200.0)

    def test_tlb_slot_bytes_must_be_supported_size(self):
        with pytest.raises(ValueError):
            BGPParams(tlb_slot_bytes=2 * MIB)
        for size in (1 * MIB, 16 * MIB, 256 * MIB):
            BGPParams(tlb_slot_bytes=size)

    def test_frozen(self):
        p = BGPParams()
        with pytest.raises(Exception):
            p.torus_link_bw = 1.0  # type: ignore[misc]


class TestMemoryModel:
    def test_l3_regime_below_cache(self):
        p = BGPParams()
        model = MemoryModel(p)
        r = model.regime(1 * MIB)
        assert r.raw_capacity == p.mem_bw_l3
        assert r.core_copy_cap == p.core_copy_bw_l3
        assert r.fifo_copy_cap == p.fifo_copy_bw_l3
        assert r.core_reduce_cap == p.core_reduce_bw_l3

    def test_dram_regime_beyond_twice_cache(self):
        p = BGPParams()
        model = MemoryModel(p)
        r = model.regime(3 * p.l3_bytes)
        assert r.raw_capacity == p.mem_bw_dram
        assert r.core_copy_cap == p.core_copy_bw_dram

    def test_midpoint_blend(self):
        p = BGPParams()
        model = MemoryModel(p)
        r = model.regime(p.l3_bytes + p.l3_bytes // 2)
        expected = 0.5 * (p.mem_bw_l3 + p.mem_bw_dram)
        assert r.raw_capacity == pytest.approx(expected)

    def test_exactly_l3_is_pure_l3(self):
        p = BGPParams()
        model = MemoryModel(p)
        assert model.regime(p.l3_bytes).raw_capacity == p.mem_bw_l3

    def test_monotone_non_increasing(self):
        model = MemoryModel(BGPParams())
        sizes = [0, 1 * MIB, 8 * MIB, 10 * MIB, 12 * MIB, 16 * MIB, 64 * MIB]
        caps = [model.regime(s).raw_capacity for s in sizes]
        assert all(a >= b for a, b in zip(caps, caps[1:]))

    def test_negative_working_set_rejected(self):
        with pytest.raises(ValueError):
            MemoryModel(BGPParams()).regime(-1)
