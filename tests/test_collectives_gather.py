"""Integration tests for the future-work gather extension."""

import pytest

from repro.bench.harness import run_gather
from repro.collectives.registry import get_algorithm, list_algorithms
from repro.hardware import Machine, Mode

ALGOS = ["gather-ring-current", "gather-ring-shaddr"]


class TestGatherCorrectness:
    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_root_assembles_all_blocks(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        result = run_gather(
            m, algorithm, block_bytes=4096, iters=1, verify=True
        )
        assert result.nbytes == 4096 * m.nprocs

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_odd_block(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        run_gather(m, algorithm, block_bytes=2049, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_single_node(self, algorithm):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        run_gather(m, algorithm, block_bytes=1024, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_smp_mode(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.SMP)
        run_gather(m, algorithm, block_bytes=4096, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_asymmetric_torus(self, algorithm):
        m = Machine(torus_dims=(3, 2, 1), mode=Mode.QUAD)
        run_gather(m, algorithm, block_bytes=1000, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_zero_block(self, algorithm):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        result = run_gather(m, algorithm, block_bytes=0, iters=1)
        assert result.elapsed_us >= 0

    def test_iterations(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        result = run_gather(
            m, "gather-ring-shaddr", block_bytes=1024, iters=3, verify=True
        )
        assert len(result.iterations_us) == 3

    def test_registry(self):
        assert list_algorithms("gather") == sorted(ALGOS)
        with pytest.raises(KeyError):
            get_algorithm("gather", "nope")


class TestGatherShape:
    def test_shaddr_at_least_as_fast(self):
        results = {}
        for algorithm in ALGOS:
            m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
            results[algorithm] = run_gather(
                m, algorithm, block_bytes=64 * 1024
            ).elapsed_us
        assert (
            results["gather-ring-shaddr"]
            <= results["gather-ring-current"]
        )

    def test_non_root_ranks_return_early(self):
        """MPI_Gather local-completion: non-roots don't wait for the root."""
        m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
        from repro.bench.harness import _measure
        from repro.collectives.gather import RingShaddrGather

        def make(_i):
            return RingShaddrGather(m, 32 * 1024)

        times = _measure(m, make, iters=1, verify=False)
        root_time = times[0][0]
        non_root = [t for r, t in enumerate(times[0]) if r != 0]
        assert max(non_root) < root_time
