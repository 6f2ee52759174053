"""Unit tests for the CNK process-window model."""

import pytest

from repro.hardware import BGPParams, Machine, Mode
from repro.kernel.windows import ProcessWindows
from repro.util.units import MIB


def run_map(windows, peer, key, nbytes, machine):
    """Drive a map_buffer call to completion; return elapsed sim time."""
    start = machine.engine.now
    result = {}

    def p():
        mapping = yield from windows.map_buffer(peer, key, nbytes)
        result["mapping"] = mapping
        result["elapsed"] = machine.engine.now - start

    proc = machine.spawn(p())
    machine.engine.run_until_processes_finish([proc])
    return result


class TestSlotsNeeded:
    def test_small_buffer_one_slot(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        w = ProcessWindows(m)
        assert w.slots_needed(1) == 1
        assert w.slots_needed(256 * MIB) == 1

    def test_spanning_buffer_two_slots(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        w = ProcessWindows(m)
        assert w.slots_needed(256 * MIB + 1) == 2

    def test_small_tlb_slot_size(self):
        params = BGPParams(tlb_slot_bytes=1 * MIB)
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD, params=params)
        w = ProcessWindows(m)
        assert w.slots_needed(4 * MIB) == 4

    def test_zero_rejected(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        with pytest.raises(ValueError):
            ProcessWindows(m).slots_needed(0)


class TestMappingCosts:
    def test_first_map_pays_two_syscalls(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        w = ProcessWindows(m)
        r = run_map(w, 1, "buf", 4096, m)
        assert r["elapsed"] == pytest.approx(2 * m.params.syscall_cost)
        assert w.syscalls == 2
        assert w.mappings_installed == 1

    def test_cached_repeat_is_free(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        w = ProcessWindows(m, caching=True)
        run_map(w, 1, "buf", 4096, m)
        r = run_map(w, 1, "buf", 4096, m)
        assert r["elapsed"] == 0.0
        assert w.cache_hits == 1
        assert w.syscalls == 2

    def test_nocaching_pays_every_time(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        w = ProcessWindows(m, caching=False)
        run_map(w, 1, "buf", 4096, m)
        run_map(w, 1, "buf", 4096, m)
        assert w.syscalls == 4
        assert w.cache_hits == 0

    def test_spanning_buffer_costs_per_slot(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        w = ProcessWindows(m)
        r = run_map(w, 1, "big", 256 * MIB + 1, m)
        assert r["elapsed"] == pytest.approx(4 * m.params.syscall_cost)

    def test_smaller_cached_buffer_does_not_serve_larger(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        w = ProcessWindows(m)
        run_map(w, 1, "buf", 1024, m)
        run_map(w, 1, "buf", 2048, m)
        assert w.mappings_installed == 2

    def test_cached_larger_serves_smaller(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        w = ProcessWindows(m)
        run_map(w, 1, "buf", 2048, m)
        r = run_map(w, 1, "buf", 1024, m)
        assert r["elapsed"] == 0.0

    def test_distinct_buffers_of_same_peer_thrash_slot(self):
        # One slot per peer in quad mode: alternating two different large
        # buffers of the same peer evicts each time.
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        w = ProcessWindows(m)
        run_map(w, 1, "a", 4096, m)
        run_map(w, 1, "b", 4096, m)
        r = run_map(w, 1, "a", 4096, m)
        assert r["elapsed"] > 0.0  # was evicted by "b"

    def test_mapping_fields(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        w = ProcessWindows(m)
        r = run_map(w, 2, "k", 4096, m)
        mapping = r["mapping"]
        assert mapping.peer == 2
        assert mapping.buffer_key == "k"
        assert mapping.nbytes == 4096
        assert mapping.slots == 1
