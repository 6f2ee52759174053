"""Unit and property tests for colors, partitions, rectangle routes, rings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Machine, Mode
from repro.msg import (
    ChunkPlan,
    Color,
    RectangleSchedule,
    partition_bytes,
    ring_order,
    split_chunks,
    torus_colors,
)

dims_strategy = st.tuples(
    st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)
).filter(lambda d: d[0] * d[1] * d[2] > 1)


class TestColors:
    def test_six_colors_unique_routes(self):
        colors = torus_colors(6)
        assert len(colors) == 6
        assert len({(c.dim_order, c.sign) for c in colors}) == 6
        assert {c.id for c in colors} == set(range(6))

    def test_three_colors_positive(self):
        colors = torus_colors(3)
        assert all(c.sign == 1 for c in colors)
        assert len({c.dim_order for c in colors}) == 3

    def test_one_color(self):
        assert len(torus_colors(1)) == 1

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            torus_colors(4)

    def test_bad_dim_order_rejected(self):
        with pytest.raises(ValueError):
            Color(0, (0, 0, 2), 1)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            Color(0, (0, 1, 2), 0)


class TestPartitionBytes:
    def test_sums_to_total(self):
        assert sum(partition_bytes(100, 6)) == 100

    def test_alignment(self):
        parts = partition_bytes(8 * 13, 3, align=8)
        assert sum(parts) == 8 * 13
        assert all(p % 8 == 0 for p in parts)

    def test_unaligned_total_rejected(self):
        with pytest.raises(ValueError):
            partition_bytes(12, 3, align=8)

    @given(
        nbytes=st.integers(0, 10**6),
        ncolors=st.sampled_from([1, 3, 6]),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_properties(self, nbytes, ncolors):
        parts = partition_bytes(nbytes, ncolors)
        assert sum(parts) == nbytes
        assert len(parts) == ncolors
        assert max(parts) - min(parts) <= 1
        assert all(p >= 0 for p in parts)


class TestChunkPlan:
    def test_exact_division(self):
        plan = ChunkPlan.build(100, 25)
        assert plan.sizes == (25, 25, 25, 25)
        assert plan.offset(2) == 50

    def test_remainder(self):
        plan = ChunkPlan.build(90, 25)
        assert plan.sizes == (25, 25, 25, 15)

    def test_empty(self):
        assert ChunkPlan.build(0, 10).nchunks == 0

    def test_slices(self):
        plan = ChunkPlan.build(50, 20)
        assert list(plan.slices()) == [(0, 0, 20), (1, 20, 20), (2, 40, 10)]

    def test_offset_out_of_range(self):
        with pytest.raises(IndexError):
            ChunkPlan.build(10, 5).offset(2)

    @given(nbytes=st.integers(0, 10**6), chunk=st.integers(1, 10**5))
    @settings(max_examples=50, deadline=None)
    def test_split_reassembles(self, nbytes, chunk):
        sizes = split_chunks(nbytes, chunk)
        assert sum(sizes) == nbytes
        assert all(0 < s <= chunk for s in sizes)
        if sizes:
            assert all(s == chunk for s in sizes[:-1])


class TestRectangleSchedule:
    @given(dims=dims_strategy, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_node_reached_exactly_once(self, dims, data):
        m = Machine(torus_dims=dims, mode=Mode.SMP)
        root = data.draw(st.integers(0, m.nnodes - 1))
        for color in torus_colors(6):
            sched = RectangleSchedule(m.torus, root, color)
            roles = [sched.role(n) for n in range(m.nnodes)]
            assert roles[root].receive_phase == -1
            for node, role in enumerate(roles):
                if node != root:
                    assert 0 <= role.receive_phase < sched.nphases

    @given(dims=dims_strategy, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_relays_cover_later_phases_only(self, dims, data):
        m = Machine(torus_dims=dims, mode=Mode.SMP)
        root = data.draw(st.integers(0, m.nnodes - 1))
        color = data.draw(st.sampled_from(torus_colors(6)))
        sched = RectangleSchedule(m.torus, root, color)
        for node in range(m.nnodes):
            role = sched.role(node)
            for phase, dim in role.relays:
                assert phase > role.receive_phase
                assert dim == sched.phase_dims[phase]

    def test_line_broadcast_coverage_simulates_reachability(self):
        """Executing the schedule's line broadcasts reaches every node."""
        m = Machine(torus_dims=(3, 4, 2), mode=Mode.SMP)
        root = 7
        for color in torus_colors(6):
            sched = RectangleSchedule(m.torus, root, color)
            have = {root}
            for phase, dim in enumerate(sched.phase_dims):
                sources = [
                    n for n in range(m.nnodes)
                    if (n == root and (phase, dim) in sched.role(n).relays)
                    or (n != root and (phase, dim) in sched.role(n).relays)
                    or (n == root and phase == 0)
                ]
                # Everyone relaying in this phase must already hold the data.
                new = set()
                for src in sources:
                    assert src in have, (color.id, phase, src)
                    new.update(m.torus.line_nodes(src, dim, color.sign))
                have |= new
            assert have == set(range(m.nnodes)), color.id

    def test_degenerate_dimension_skipped(self):
        m = Machine(torus_dims=(4, 1, 2), mode=Mode.SMP)
        sched = RectangleSchedule(m.torus, 0, torus_colors(6)[0])
        assert sched.nphases == 2
        assert 1 not in sched.phase_dims

    def test_single_node_machine(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.SMP)
        sched = RectangleSchedule(m.torus, 0, torus_colors(1)[0])
        assert sched.nphases == 0
        assert sched.role(0).receive_phase == -1
        assert sched.role(0).relays == ()


class TestRingOrder:
    @given(dims=dims_strategy, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ring_is_a_permutation_starting_at_root(self, dims, data):
        m = Machine(torus_dims=dims, mode=Mode.SMP)
        root = data.draw(st.integers(0, m.nnodes - 1))
        color = data.draw(st.sampled_from(torus_colors(3)))
        ring = ring_order(m.torus, color, root)
        assert sorted(ring) == list(range(m.nnodes))
        assert ring[0] == root

    @given(dims=dims_strategy)
    @settings(max_examples=30, deadline=None)
    def test_snake_neighbours_are_close(self, dims):
        m = Machine(torus_dims=dims, mode=Mode.SMP)
        color = torus_colors(3)[0]
        ring = ring_order(m.torus, color, 0)
        hops = [
            m.torus.hop_distance(ring[i], ring[i + 1])
            for i in range(len(ring) - 1)
        ]
        # The snake keeps consecutive positions within a couple of hops.
        assert max(hops) <= 2

    def test_three_color_rings_differ(self):
        m = Machine(torus_dims=(3, 3, 3), mode=Mode.SMP)
        rings = [ring_order(m.torus, c, 0) for c in torus_colors(3)]
        assert rings[0] != rings[1] != rings[2]
