"""Integration tests for the reduce / scatter / barrier extensions."""

import pytest

from repro.bench.harness import run_barrier, run_reduce, run_scatter
from repro.collectives.registry import get_algorithm, list_algorithms
from repro.hardware import Machine, Mode

REDUCE_ALGOS = ["reduce-torus-current", "reduce-torus-shaddr"]
SCATTER_ALGOS = ["scatter-ring-current", "scatter-ring-shaddr"]
BARRIER_ALGOS = ["barrier-gi", "barrier-tree", "barrier-torus"]


class TestReduce:
    @pytest.mark.parametrize("algorithm", REDUCE_ALGOS)
    def test_exact_sum_at_root(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        result = run_reduce(m, algorithm, count=5000, iters=1, verify=True)
        assert result.elapsed_us > 0

    @pytest.mark.parametrize("algorithm", REDUCE_ALGOS)
    def test_odd_count(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        run_reduce(m, algorithm, count=3331, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", REDUCE_ALGOS)
    def test_single_node(self, algorithm):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        run_reduce(m, algorithm, count=2000, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", REDUCE_ALGOS)
    def test_zero_count(self, algorithm):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        assert run_reduce(m, algorithm, count=0).elapsed_us >= 0

    def test_current_works_smp(self):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.SMP)
        run_reduce(m, "reduce-torus-current", count=4000, iters=1,
                   verify=True)

    def test_shaddr_requires_quad(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.DUAL)
        with pytest.raises(ValueError):
            run_reduce(m, "reduce-torus-shaddr", count=100)

    def test_shaddr_beats_current(self):
        results = {}
        for algorithm in REDUCE_ALGOS:
            m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
            results[algorithm] = run_reduce(
                m, algorithm, count=128 * 1024
            ).elapsed_us
        assert (
            results["reduce-torus-shaddr"]
            < results["reduce-torus-current"]
        )

    def test_reduce_cheaper_than_allreduce(self):
        from repro.bench import run_allreduce

        m1 = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
        reduce_t = run_reduce(
            m1, "reduce-torus-shaddr", count=64 * 1024
        ).elapsed_us
        m2 = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
        allreduce_t = run_allreduce(
            m2, "allreduce-torus-shaddr", count=64 * 1024
        ).elapsed_us
        assert reduce_t < allreduce_t

    def test_registry(self):
        assert list_algorithms("reduce") == sorted(REDUCE_ALGOS)
        with pytest.raises(KeyError):
            get_algorithm("reduce", "nope")


class TestScatter:
    @pytest.mark.parametrize("algorithm", SCATTER_ALGOS)
    def test_each_rank_gets_its_block(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        run_scatter(m, algorithm, block_bytes=4096, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", SCATTER_ALGOS)
    def test_odd_block(self, algorithm):
        m = Machine(torus_dims=(3, 2, 1), mode=Mode.QUAD)
        run_scatter(m, algorithm, block_bytes=1025, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", SCATTER_ALGOS)
    def test_single_node(self, algorithm):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        run_scatter(m, algorithm, block_bytes=2048, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", SCATTER_ALGOS)
    def test_smp_mode(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.SMP)
        run_scatter(m, algorithm, block_bytes=4096, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", SCATTER_ALGOS)
    def test_zero_block(self, algorithm):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        assert run_scatter(m, algorithm, block_bytes=0).elapsed_us >= 0

    def test_registry(self):
        assert list_algorithms("scatter") == sorted(SCATTER_ALGOS)
        with pytest.raises(KeyError):
            get_algorithm("scatter", "nope")


class TestBarrier:
    @pytest.mark.parametrize("algorithm", BARRIER_ALGOS)
    def test_completes_with_positive_latency(self, algorithm):
        m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
        result = run_barrier(m, algorithm, iters=2)
        assert result.elapsed_us > 0
        assert result.nbytes == 0

    def test_hardware_barrier_fastest(self):
        latencies = {}
        for algorithm in BARRIER_ALGOS:
            m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
            latencies[algorithm] = run_barrier(m, algorithm).elapsed_us
        assert latencies["barrier-gi"] < latencies["barrier-tree"]
        assert latencies["barrier-gi"] < latencies["barrier-torus"]

    def test_software_barrier_latency_grows_with_machine(self):
        small = run_barrier(
            Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD), "barrier-torus"
        ).elapsed_us
        large = run_barrier(
            Machine(torus_dims=(4, 4, 4), mode=Mode.QUAD), "barrier-torus"
        ).elapsed_us
        assert large > small

    @pytest.mark.parametrize("algorithm", BARRIER_ALGOS)
    def test_single_node(self, algorithm):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        assert run_barrier(m, algorithm).elapsed_us > 0

    def test_registry(self):
        assert list_algorithms("barrier") == sorted(BARRIER_ALGOS)
        with pytest.raises(KeyError):
            get_algorithm("barrier", "nope")
