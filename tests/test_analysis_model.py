"""Cross-validation of the analytic model against the simulator.

The simulator must never beat a closed-form ceiling, and at large messages
(where pipeline-fill effects amortize) it should approach it.
"""

import pytest

from repro.analysis import (
    Prediction,
    predict_torus_bcast,
    predict_tree_bcast,
    predict_tree_latency,
)
from repro.bench import run_collective
from repro.hardware import BGPParams, Machine, Mode
from repro.util.units import MIB

DIMS = (4, 4, 4)


class TestPredictionMechanics:
    def test_bottleneck_is_minimum(self):
        p = Prediction()
        p.add("a", 100.0)
        p.add("b", 50.0)
        assert p.bottleneck.name == "b"
        assert p.value == 50.0

    def test_empty_prediction_rejected(self):
        with pytest.raises(ValueError):
            Prediction().bottleneck

    def test_str_marks_bottleneck(self):
        p = Prediction()
        p.add("a", 100.0)
        p.add("b", 50.0)
        assert "bottleneck" in str(p)

    def test_unknown_algorithms_rejected(self):
        params = BGPParams()
        with pytest.raises(KeyError):
            predict_torus_bcast(params, "nope", DIMS, 1024)
        with pytest.raises(KeyError):
            predict_tree_bcast(params, "nope", 1024)
        with pytest.raises(KeyError):
            predict_tree_latency(params, 64, 8, "nope")


class TestTorusBandwidthCrossValidation:
    @pytest.mark.parametrize(
        "algorithm,mode",
        [
            ("torus-direct-put", Mode.QUAD),
            ("torus-direct-put-smp", Mode.SMP),
            ("torus-fifo", Mode.QUAD),
            ("torus-shaddr", Mode.QUAD),
        ],
    )
    def test_simulation_within_analytic_ceiling(self, algorithm, mode):
        params = BGPParams()
        machine = Machine(torus_dims=DIMS, mode=mode, params=params)
        measured = run_collective(
            machine, "bcast", algorithm, 2 * MIB
        ).bandwidth_mbs
        predicted = predict_torus_bcast(
            params, algorithm, DIMS, 2 * MIB, ppn=mode.processes_per_node
        ).value
        assert measured <= predicted * 1.02
        # Steady state approaches the ceiling (fill costs the remainder).
        assert measured >= 0.55 * predicted

    def test_direct_put_bottleneck_is_the_dma(self):
        pred = predict_torus_bcast(BGPParams(), "torus-direct-put", DIMS,
                                   2 * MIB)
        assert "DMA" in pred.bottleneck.name

    def test_fifo_bottleneck_is_the_staging_copy(self):
        pred = predict_torus_bcast(BGPParams(), "torus-fifo", DIMS, 2 * MIB)
        assert "staging" in pred.bottleneck.name

    def test_paper_ratio_reproduced_analytically(self):
        """The 2.9x headline falls out of the closed-form model alone."""
        params = BGPParams()
        shaddr = predict_torus_bcast(params, "torus-shaddr", DIMS, 2 * MIB)
        dput = predict_torus_bcast(params, "torus-direct-put", DIMS, 2 * MIB)
        assert 2.5 <= shaddr.value / dput.value <= 4.3

    def test_l3_knee_lowers_the_shaddr_ceiling(self):
        params = BGPParams()
        small = predict_torus_bcast(params, "torus-shaddr", DIMS, 1 * MIB)
        large = predict_torus_bcast(params, "torus-shaddr", DIMS, 8 * MIB)
        assert large.value < small.value


class TestTreeBandwidthCrossValidation:
    @pytest.mark.parametrize(
        "algorithm,mode",
        [
            ("tree-smp", Mode.SMP),
            ("tree-dma-fifo", Mode.QUAD),
            ("tree-dma-direct-put", Mode.QUAD),
            ("tree-shaddr", Mode.QUAD),
        ],
    )
    def test_simulation_within_analytic_ceiling(self, algorithm, mode):
        params = BGPParams()
        machine = Machine(torus_dims=(2, 2, 2), mode=mode, params=params)
        measured = run_collective(
            machine, "bcast", algorithm, 2 * MIB
        ).bandwidth_mbs
        predicted = predict_tree_bcast(
            params, algorithm, 2 * MIB, ppn=mode.processes_per_node
        ).value
        assert measured <= predicted * 1.02
        assert measured >= 0.5 * predicted

    def test_single_core_serialization_halves_throughput(self):
        params = BGPParams()
        smp = predict_tree_bcast(params, "tree-smp", 1 * MIB, ppn=1)
        dma = predict_tree_bcast(params, "tree-dma-direct-put", 1 * MIB)
        assert dma.value == pytest.approx(smp.value / 2.0)


class TestTreeLatencyCrossValidation:
    @pytest.mark.parametrize(
        "algorithm,mode",
        [
            ("tree-smp", Mode.SMP),
            ("tree-shmem", Mode.QUAD),
            ("tree-dma-fifo", Mode.QUAD),
        ],
    )
    def test_latency_model_matches_simulation(self, algorithm, mode):
        params = BGPParams()
        machine = Machine(torus_dims=(4, 4, 4), mode=mode, params=params)
        measured = run_collective(
            machine, "bcast", algorithm, 8, iters=2
        ).elapsed_us
        predicted = predict_tree_latency(params, 64, 8, algorithm)
        assert measured == pytest.approx(predicted, rel=0.15)

    def test_latency_grows_with_machine_size(self):
        params = BGPParams()
        small = predict_tree_latency(params, 64, 8)
        large = predict_tree_latency(params, 2048, 8)
        assert large > small
