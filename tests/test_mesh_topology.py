"""Tests for 3D-mesh (non-wraparound) support."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import run_collective
from repro.hardware import Machine, Mode
from repro.msg import RectangleSchedule, torus_colors
from repro.util.units import MIB


def mesh(dims=(3, 2, 2), mode=Mode.QUAD):
    return Machine(torus_dims=dims, mode=mode, wrap=False)


class TestMeshTopology:
    def test_line_nodes_stop_at_boundary(self):
        m = mesh(dims=(4, 1, 1), mode=Mode.SMP)
        t = m.torus
        assert t.line_nodes(1, 0, 1) == [2, 3]
        assert t.line_nodes(1, 0, -1) == [0]
        assert t.line_nodes(0, 0, -1) == []

    def test_hop_distance_no_wrap(self):
        m = mesh(dims=(8, 1, 1), mode=Mode.SMP)
        t = m.torus
        assert t.hop_distance(0, 7) == 7  # no wraparound shortcut

    def test_ptp_send_routes_without_wrap(self):
        m = mesh(dims=(4, 1, 1), mode=Mode.SMP)
        done = {}

        def sender():
            ev = m.torus.ptp_send(0, src=0, dst=3, nbytes=425)
            yield ev
            done["t"] = m.engine.now

        proc = m.spawn(sender())
        m.engine.run_until_processes_finish([proc])
        hop = m.params.torus_hop_latency
        assert done["t"] == pytest.approx(1.0 + 3 * hop)

    def test_relay_signs_both_directions(self):
        m = mesh(mode=Mode.SMP)
        sched = RectangleSchedule(m.torus, 2, torus_colors(3)[0])
        assert sorted(sched.relay_signs()) == [-1, 1]
        torus_machine = Machine(torus_dims=(3, 2, 2), mode=Mode.SMP)
        sched_t = RectangleSchedule(torus_machine.torus, 2, torus_colors(3)[0])
        assert sched_t.relay_signs() == [1]

    @given(
        dims=st.tuples(
            st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)
        ).filter(lambda d: d[0] * d[1] * d[2] > 1),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_mesh_roles_cover_every_node(self, dims, data):
        m = Machine(torus_dims=dims, mode=Mode.SMP, wrap=False)
        root = data.draw(st.integers(0, m.nnodes - 1))
        for color in torus_colors(3):
            sched = RectangleSchedule(m.torus, root, color)
            roles = [sched.role(n) for n in range(m.nnodes)]
            assert roles[root].receive_phase == -1
            for node, role in enumerate(roles):
                if node != root:
                    assert 0 <= role.receive_phase < sched.nphases


class TestMeshCollectives:
    def test_network_reduces_to_three_colors(self):
        from repro.collectives.bcast.torus_direct_put import (
            TorusDirectPutBcast,
        )

        m = mesh()
        inv = TorusDirectPutBcast(m, 0, 60_000)
        assert len(inv.net.colors) == 3

    @pytest.mark.parametrize(
        "algorithm", ["torus-shaddr", "torus-fifo", "torus-direct-put"]
    )
    def test_mesh_bcast_verifies(self, algorithm):
        result = run_collective(
            mesh(), "bcast", algorithm, 50_000, iters=1, verify=True
        )
        assert result.elapsed_us > 0

    def test_mesh_bcast_with_interior_root(self):
        m = mesh(dims=(3, 3, 1))
        root = m.node_ranks(4)[0]  # centre of the mesh
        run_collective(
            m, "bcast", "torus-shaddr", 30_000, root=root, iters=1, verify=True
        )

    def test_mesh_slower_than_torus_at_peak(self):
        torus_bw = run_collective(
            Machine(torus_dims=(4, 4, 4), mode=Mode.QUAD),
            "bcast", "torus-shaddr", 2 * MIB,
        ).bandwidth_mbs
        mesh_bw = run_collective(
            Machine(torus_dims=(4, 4, 4), mode=Mode.QUAD, wrap=False),
            "bcast", "torus-shaddr", 2 * MIB,
        ).bandwidth_mbs
        assert mesh_bw < torus_bw
