"""Unit tests for the shared torus rectangle-schedule network engine."""

import pytest

from repro.collectives.base import BcastInvocation
from repro.collectives.bcast.torus_common import TorusBcastNetwork
from repro.hardware import Machine, Mode


class _NullBcast(BcastInvocation):
    """Minimal invocation: network only, no intra-node stage."""

    name = "null-bcast"
    network = "torus"

    def setup(self) -> None:
        pass

    def proc(self, rank: int):  # pragma: no cover - not used here
        yield self.machine.engine.timeout(0)


def build(dims=(2, 2, 1), nbytes=100_000, ncolors=6, mode=Mode.SMP,
          external=False):
    machine = Machine(torus_dims=dims, mode=mode)
    machine.set_working_set(nbytes)
    inv = _NullBcast(machine, 0, nbytes)
    net = TorusBcastNetwork(
        inv, ncolors, machine.params.pipeline_width,
        external_root_feed=external,
    )
    return machine, net


class TestTorusBcastNetwork:
    def test_all_nodes_receive_everything(self):
        machine, net = build()
        done = {}

        def watcher(node):
            yield net.node_received[node].wait_for(net.inv.nbytes)
            done[node] = machine.engine.now

        procs = [
            machine.spawn(watcher(n)) for n in range(machine.nnodes)
        ]
        net.open()
        machine.engine.run_until_processes_finish(procs)
        assert set(done) == set(range(machine.nnodes))
        # Root's data is announced at the start gate.
        assert done[0] == 0.0
        assert all(t > 0 for n, t in done.items() if n != 0)

    def test_hooks_fire_once_per_chunk_per_node(self):
        machine, net = build(nbytes=200_000)
        counts = {}

        def hook(node, color, goff, size):
            counts[node] = counts.get(node, 0) + 1

        net.on_chunk(hook)
        net.open()
        machine.engine.run()
        for node in range(machine.nnodes):
            assert counts[node] == net.total_chunks_per_node

    def test_chunk_offsets_cover_message_exactly(self):
        machine, net = build(nbytes=123_457, ncolors=3)
        seen = {}

        def hook(node, color, goff, size):
            seen.setdefault(node, []).append((goff, size))

        net.on_chunk(hook)
        net.open()
        machine.engine.run()
        for node, chunks in seen.items():
            covered = sorted(chunks)
            total = sum(size for _o, size in covered)
            assert total == 123_457
            # Non-overlapping coverage of [0, nbytes).
            position = 0
            for off, size in covered:
                assert off == position
                position += size

    def test_nothing_moves_before_open(self):
        machine, net = build()
        machine.engine.run(until=10_000.0)
        for node in range(1, machine.nnodes):
            assert net.node_received[node].value == 0

    def test_external_root_feed_paces_broadcast(self):
        machine, net = build(nbytes=120_000, ncolors=3, external=True)
        done = {}

        def feeder():
            # Feed each color's partition in two halves, the second late.
            for color_id, (off, plan) in enumerate(net.plans):
                net.feed_root(color_id, off, plan.total // 2)
            yield machine.engine.timeout(5000.0)
            for color_id, (off, plan) in enumerate(net.plans):
                half = plan.total // 2
                net.feed_root(color_id, off + half, plan.total - half)

        def watcher(node):
            yield net.node_received[node].wait_for(net.inv.nbytes)
            done[node] = machine.engine.now

        procs = [machine.spawn(feeder())] + [
            machine.spawn(watcher(n)) for n in range(machine.nnodes)
        ]
        net.open()
        machine.engine.run_until_processes_finish(procs)
        # Completion must wait for the late second half (the root node's
        # completes exactly at the feed; others after propagation).
        assert all(t >= 5000.0 for t in done.values())
        assert all(t > 5000.0 for n, t in done.items() if n != 0)

    def test_feed_root_requires_external_mode(self):
        _machine, net = build()
        with pytest.raises(RuntimeError):
            net.feed_root(0, 0, 100)

    def test_single_color_schedule(self):
        machine, net = build(ncolors=1, nbytes=50_000)
        net.open()
        machine.engine.run()
        for node in range(machine.nnodes):
            assert net.node_received[node].value == 50_000

    def test_quad_mode_masters_receive(self):
        machine, net = build(mode=Mode.QUAD, nbytes=60_000)
        net.open()
        machine.engine.run()
        assert net.node_received[1].value == 60_000
