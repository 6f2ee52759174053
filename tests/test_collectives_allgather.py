"""Integration tests for the future-work allgather extension."""

import pytest

from repro.bench import run_collective
from repro.collectives.registry import get_algorithm, list_algorithms
from repro.hardware import Machine, Mode

ALGOS = ["allgather-ring-current", "allgather-ring-shaddr"]


class TestAllgatherCorrectness:
    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_every_rank_assembles_all_blocks(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        result = run_collective(
            m, "allgather", algorithm, 4096, iters=1, verify=True
        )
        assert result.nbytes == 4096 * m.nprocs

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_odd_block_size(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        run_collective(m, "allgather", algorithm, 3333, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_single_node(self, algorithm):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        run_collective(m, "allgather", algorithm, 2048, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_single_process(self, algorithm):
        """One rank: its own block is the whole result."""
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.SMP)
        result = run_collective(
            m, "allgather", algorithm, 2048, iters=1, verify=True
        )
        assert result.elapsed_us == 0.0

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_asymmetric_torus(self, algorithm):
        m = Machine(torus_dims=(3, 2, 1), mode=Mode.QUAD)
        run_collective(m, "allgather", algorithm, 1024, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_smp_mode(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.SMP)
        run_collective(m, "allgather", algorithm, 4096, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_zero_block(self, algorithm):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        result = run_collective(m, "allgather", algorithm, 0, iters=1)
        assert result.elapsed_us >= 0

    def test_multiple_iterations(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        result = run_collective(
            m, "allgather", "allgather-ring-shaddr", 2048, iters=3, verify=True
        )
        assert len(result.iterations_us) == 3

    def test_registry(self):
        assert list_algorithms("allgather") == sorted(ALGOS)
        with pytest.raises(KeyError):
            get_algorithm("allgather", "nope")


class TestAllgatherShape:
    def test_shaddr_beats_current(self):
        results = {}
        for algorithm in ALGOS:
            m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
            results[algorithm] = run_collective(
                m, "allgather", algorithm, 64 * 1024
            ).bandwidth_mbs
        assert (
            results["allgather-ring-shaddr"]
            > results["allgather-ring-current"]
        )
