"""Unit tests for the collective (tree) network model."""

import pytest

from repro.hardware import Machine, Mode
from repro.hardware.tree import split_chunks


def make(dims=(2, 2, 1), mode=Mode.SMP):
    m = Machine(torus_dims=dims, mode=mode)
    m.set_working_set(1024)
    return m


class TestSplitChunks:
    def test_exact(self):
        assert split_chunks(100, 50) == [50, 50]

    def test_remainder(self):
        assert split_chunks(110, 50) == [50, 50, 10]

    def test_zero(self):
        assert split_chunks(0, 50) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_chunks(-1, 50)
        with pytest.raises(ValueError):
            split_chunks(10, 0)


class TestTreeOperation:
    def _run_full_op(self, m, nbytes, chunk):
        """Every node injects and receives every chunk; returns finish time."""
        op = m.tree.operation(nbytes, chunk)
        finished = {}

        def node_proc(n):
            for k in range(op.nchunks):
                yield from op.inject(n, k)
                yield from op.receive(n, k)
            finished[n] = m.engine.now

        procs = [
            m.spawn(node_proc(n), name=f"n{n}") for n in range(m.nnodes)
        ]
        m.engine.run_until_processes_finish(procs)
        return max(finished.values())

    def test_completes_and_takes_time(self):
        m = make()
        t = self._run_full_op(m, 64 * 1024, 16 * 1024)
        assert t > 0

    def test_availability_needs_all_injections(self):
        m = make()
        op = m.tree.operation(1024, 1024)
        log = {}

        def fast_node():
            yield from op.inject(0, 0)
            yield from op.receive(0, 0)
            log["fast_done"] = m.engine.now

        def slow_node(n):
            yield m.engine.timeout(500.0)
            yield from op.inject(n, 0)
            yield from op.receive(n, 0)

        procs = [m.spawn(fast_node())] + [
            m.spawn(slow_node(n)) for n in range(1, m.nnodes)
        ]
        m.engine.run_until_processes_finish(procs)
        # The combined result cannot leave before the last injection.
        assert log["fast_done"] > 500.0

    def test_throughput_bounded_by_link_rate(self):
        m = make(dims=(2, 1, 1))
        nbytes = 850 * 100  # 100 µs of payload at full tree rate
        t = self._run_full_op(m, nbytes, 8 * 1024)
        assert t >= 100.0  # cannot beat the 850 MB/s wire

    def test_single_core_halves_throughput(self):
        """Injecting and receiving from the same coroutine serializes —
        the reason two cores are needed to saturate the network."""
        m1 = make(dims=(2, 1, 1))
        nbytes = 850 * 200
        serial_time = self._run_full_op(m1, nbytes, 64 * 1024)

        # Overlapped: a helper coroutine injects while the main receives.
        m2 = make(dims=(2, 1, 1))
        op = m2.tree.operation(nbytes, 64 * 1024)
        finished = {}

        def injector(n):
            for k in range(op.nchunks):
                yield from op.inject(n, k)

        def receiver(n):
            for k in range(op.nchunks):
                yield from op.receive(n, k)
            finished[n] = m2.engine.now

        procs = []
        for n in range(m2.nnodes):
            procs.append(m2.spawn(injector(n)))
            procs.append(m2.spawn(receiver(n)))
        m2.engine.run_until_processes_finish(procs)
        overlapped_time = max(finished.values())
        assert overlapped_time < 0.75 * serial_time

    def test_window_backpressure(self):
        """A slow drainer throttles injection beyond the window."""
        m = make(dims=(2, 1, 1))
        window = m.params.tree_window_chunks
        op = m.tree.operation(16 * 1024 * (window + 3), 16 * 1024)
        inject_times = []

        def injector(n):
            for k in range(op.nchunks):
                yield from op.inject(n, k)
                if n == 0:
                    inject_times.append(m.engine.now)

        def slow_receiver(n):
            for k in range(op.nchunks):
                yield m.engine.timeout(300.0)
                yield from op.receive(n, k)

        procs = []
        for n in range(m.nnodes):
            procs.append(m.spawn(injector(n)))
            procs.append(m.spawn(slow_receiver(n)))
        m.engine.run_until_processes_finish(procs)
        # Injection of chunk `window` had to wait for drain of chunk 0.
        assert inject_times[window] > 300.0
