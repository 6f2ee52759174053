"""Unit tests for Machine, Node, and rank mapping."""

import pytest

from repro.hardware import BGPParams, Machine, Mode


class TestRankMapping:
    def test_quad_mapping(self):
        m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
        assert m.nprocs == 32
        assert m.rank_to_node(0) == 0
        assert m.rank_to_node(7) == 1
        assert m.rank_to_local(7) == 3
        assert m.node_ranks(1) == [4, 5, 6, 7]

    def test_smp_mapping(self):
        m = Machine(torus_dims=(2, 2, 2), mode=Mode.SMP)
        assert m.nprocs == 8
        assert m.rank_to_node(5) == 5
        assert m.rank_to_local(5) == 0

    def test_dual_mapping(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.DUAL)
        assert m.nprocs == 4
        assert m.node_ranks(1) == [2, 3]

    def test_rank_out_of_range(self):
        m = Machine(torus_dims=(2, 2, 2), mode=Mode.SMP)
        with pytest.raises(ValueError):
            m.rank_to_node(8)
        with pytest.raises(ValueError):
            m.rank_to_node(-1)

    def test_node_index_out_of_range(self):
        m = Machine(torus_dims=(2, 2, 2), mode=Mode.SMP)
        with pytest.raises(ValueError):
            m.node_ranks(8)

    def test_mode_needs_enough_cores(self):
        params = BGPParams(cores_per_node=2)
        with pytest.raises(ValueError):
            Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD, params=params)


class TestWorkingSet:
    def test_regime_installed_on_all_nodes(self):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        regime = m.set_working_set(32 * 1024 * 1024)
        assert regime.raw_capacity == m.params.mem_bw_dram
        for node in m.nodes:
            assert node.mem.capacity == regime.raw_capacity
            assert node.regime is regime


class TestTorusTopology:
    def test_coords_index_roundtrip(self):
        m = Machine(torus_dims=(4, 3, 2), mode=Mode.SMP)
        for i in range(m.nnodes):
            assert m.torus.index(m.torus.coords(i)) == i

    def test_neighbor_wraps(self):
        m = Machine(torus_dims=(4, 3, 2), mode=Mode.SMP)
        t = m.torus
        # Coordinates wrap: one step past either edge of a dimension
        # lands on the node at its other edge.
        assert t.index((4, 0, 0)) == t.index((0, 0, 0))
        assert t.index((-1, 0, 0)) == t.index((3, 0, 0))
        assert t.index((0, -1, 2)) == t.index((0, 2, 0))

    def test_line_nodes_excludes_source(self):
        m = Machine(torus_dims=(4, 1, 1), mode=Mode.SMP)
        t = m.torus
        line = t.line_nodes(1, 0, 1)
        assert line == [t.index((2, 0, 0)), t.index((3, 0, 0)),
                        t.index((0, 0, 0))]

    def test_hop_distance_uses_wraparound(self):
        m = Machine(torus_dims=(8, 1, 1), mode=Mode.SMP)
        t = m.torus
        assert t.hop_distance(t.index((0, 0, 0)), t.index((7, 0, 0))) == 1
        assert t.hop_distance(t.index((0, 0, 0)), t.index((4, 0, 0))) == 4

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            Machine(torus_dims=(0, 2, 2), mode=Mode.SMP)


class TestTreeNetwork:
    def test_depth_grows_logarithmically(self):
        small = Machine(torus_dims=(2, 2, 1), mode=Mode.SMP)
        large = Machine(torus_dims=(8, 8, 4), mode=Mode.SMP)
        assert small.tree.depth < large.tree.depth
        assert large.tree.depth == 8  # ceil(log2(256))

    def test_traversal_latency_positive(self):
        m = Machine(torus_dims=(4, 4, 4), mode=Mode.SMP)
        assert m.tree.traversal_latency > 0


class TestNodeOps:
    def test_core_copy_rate(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        m.set_working_set(1024)
        node = m.nodes[0]
        done = []

        def p():
            yield from node.core_copy(m.params.core_copy_bw_l3 * 10)
            done.append(m.engine.now)

        m.spawn(p())
        m.run()
        assert done == [pytest.approx(10.0)]

    def test_two_core_copies_split_memory(self):
        # Memory raw capacity binds before two cores' individual caps.
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        m.set_working_set(1024)
        node = m.nodes[0]
        raw = m.params.mem_bw_l3
        per_core = m.params.core_copy_bw_l3
        payload = 10000.0
        done = []

        def p(i):
            yield from node.core_copy(payload)
            done.append(m.engine.now)

        for i in range(4):
            m.spawn(p(i))
        m.run()
        # Four copies, each weight 2: fair share = raw/8 per flow, below
        # the per-core cap in the default calibration.
        expected_rate = min(per_core, raw / 8.0)
        assert done[-1] == pytest.approx(payload / expected_rate)

    def test_core_reduce_requires_two_buffers(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        node = m.nodes[0]
        with pytest.raises(ValueError):
            list(node.core_reduce(100, 1))

    def test_dma_counter_polling(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        dma = m.dma[0]
        counter = dma.make_counter()
        log = []

        def poller():
            yield from counter.wait_for(100)
            log.append(m.engine.now)

        def producer():
            yield m.engine.timeout(5.0)
            counter.add(100)

        m.spawn(poller())
        m.spawn(producer())
        m.run()
        assert log == [pytest.approx(5.0 + m.params.dma_counter_poll)]
