"""Integration tests: allreduce algorithms compute exact element-wise sums
through the full simulated stack (local reduce, ring reduction, broadcast,
intra-node distribution)."""

import numpy as np
import pytest

from repro.bench import run_collective
from repro.collectives.registry import get_algorithm
from repro.hardware import Machine, Mode

ALGOS = ["allreduce-torus-current", "allreduce-torus-shaddr", "allreduce-tree"]


class TestAllreduceCorrectness:
    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_exact_sum_everywhere(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        result = run_collective(
            m, "allreduce", algorithm, 5000, iters=1, verify=True
        )
        assert result.elapsed_us > 0

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_odd_count(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        run_collective(m, "allreduce", algorithm, 7777, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_tiny_count(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        run_collective(m, "allreduce", algorithm, 1, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_zero_count(self, algorithm):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        result = run_collective(m, "allreduce", algorithm, 0, iters=1)
        assert result.elapsed_us >= 0

    @pytest.mark.parametrize(
        "algorithm", ["allreduce-torus-current", "allreduce-tree"]
    )
    def test_asymmetric_torus(self, algorithm):
        m = Machine(torus_dims=(3, 2, 1), mode=Mode.QUAD)
        run_collective(m, "allreduce", algorithm, 4000, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_single_node(self, algorithm):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        run_collective(m, "allreduce", algorithm, 3000, iters=1, verify=True)

    def test_multiple_iterations(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        result = run_collective(
            m, "allreduce", "allreduce-torus-shaddr", 4096, iters=3,
            verify=True
        )
        assert len(result.iterations_us) == 3

    def test_current_works_in_smp_mode(self):
        # No intra-node stages; the network protocol alone.
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.SMP)
        run_collective(
            m, "allreduce", "allreduce-torus-current", 4000, iters=1,
            verify=True
        )

    def test_shaddr_requires_quad(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.DUAL)
        with pytest.raises(ValueError):
            run_collective(
                m, "allreduce", "allreduce-torus-shaddr", 128, iters=1
            )

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            get_algorithm("allreduce", "nope")


class TestAllreducePerformanceShape:
    def test_new_beats_current_at_large_counts(self):
        results = {}
        for algorithm in ["allreduce-torus-current", "allreduce-torus-shaddr"]:
            m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
            results[algorithm] = run_collective(
                m, "allreduce", algorithm, 256 * 1024
            ).bandwidth_mbs
        assert (
            results["allreduce-torus-shaddr"]
            > results["allreduce-torus-current"]
        )

    def test_improvement_grows_with_message_size(self):
        ratios = []
        for count in [16 * 1024, 256 * 1024]:
            row = {}
            for algorithm in [
                "allreduce-torus-current", "allreduce-torus-shaddr"
            ]:
                m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
                row[algorithm] = run_collective(
                    m, "allreduce", algorithm, count
                ).bandwidth_mbs
            ratios.append(
                row["allreduce-torus-shaddr"] / row["allreduce-torus-current"]
            )
        assert ratios[1] > ratios[0]

    def test_tree_wins_for_short_messages(self):
        tree = run_collective(
            Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD),
            "allreduce", "allreduce-tree", 512,
        )
        torus = run_collective(
            Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD),
            "allreduce", "allreduce-torus-shaddr", 512,
        )
        assert tree.elapsed_us < torus.elapsed_us
