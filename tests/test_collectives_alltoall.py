"""Integration tests for the alltoall extension."""

import pytest

from repro.bench.harness import run_alltoall
from repro.collectives.registry import get_algorithm, list_algorithms
from repro.hardware import Machine, Mode

ALGOS = ["alltoall-shift-current", "alltoall-shift-shaddr"]


class TestAlltoallCorrectness:
    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_every_rank_gets_every_block(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        result = run_alltoall(
            m, algorithm, block_bytes=1024, iters=1, verify=True
        )
        assert result.nbytes == 1024 * m.nprocs

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_odd_block(self, algorithm):
        m = Machine(torus_dims=(3, 2, 1), mode=Mode.QUAD)
        run_alltoall(m, algorithm, block_bytes=333, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_single_node(self, algorithm):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        run_alltoall(m, algorithm, block_bytes=2048, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_smp_mode(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.SMP)
        run_alltoall(m, algorithm, block_bytes=1024, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_mesh(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD, wrap=False)
        run_alltoall(m, algorithm, block_bytes=512, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_zero_block(self, algorithm):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        assert run_alltoall(m, algorithm, block_bytes=0).elapsed_us >= 0

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_single_rank(self, algorithm):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.SMP)
        run_alltoall(m, algorithm, block_bytes=128, iters=1, verify=True)

    def test_iterations(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        result = run_alltoall(
            m, "alltoall-shift-shaddr", block_bytes=512, iters=2, verify=True
        )
        assert len(result.iterations_us) == 2

    def test_registry(self):
        assert list_algorithms("alltoall") == sorted(ALGOS)
        with pytest.raises(KeyError):
            get_algorithm("alltoall", "nope")


class TestAlltoallShape:
    def test_shaddr_beats_current(self):
        results = {}
        for algorithm in ALGOS:
            m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
            results[algorithm] = run_alltoall(
                m, algorithm, block_bytes=16 * 1024
            ).elapsed_us
        assert (
            results["alltoall-shift-shaddr"]
            < results["alltoall-shift-current"]
        )

    def test_traffic_scales_quadratically_with_nodes(self):
        small = run_alltoall(
            Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD),
            "alltoall-shift-shaddr", 8 * 1024,
        ).elapsed_us
        large = run_alltoall(
            Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD),
            "alltoall-shift-shaddr", 8 * 1024,
        ).elapsed_us
        # Doubling the node count more than doubles the time (N^2 blocks,
        # N per-rank volume).
        assert large > 2.0 * small
