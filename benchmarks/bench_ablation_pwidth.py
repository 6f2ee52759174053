"""Ablation: pipeline width (Pwidth) of the message-counter schemes.

The paper pipelines the network and intra-node stages "in units of Pwidth
bytes" but does not sweep the parameter.  This ablation does: small widths
pay per-chunk costs (DMA descriptors, counter updates, poll latency), large
widths destroy the overlap between the network and the peers' copies —
there is a broad sweet spot around the default 64 KB.
"""

from conftest import publish

from repro.bench.experiments import ExperimentResult
from repro.bench.harness import run_collective
from repro.bench.report import Series
from repro.hardware import BGPParams, Machine, Mode
from repro.util.units import KIB, MIB

WIDTHS = [1 * KIB, 8 * KIB, 32 * KIB, 64 * KIB, 128 * KIB, 256 * KIB]
MESSAGE = 2 * MIB


def run_pwidth_ablation() -> ExperimentResult:
    series = Series("Torus+Shaddr @2M (MB/s)")
    for width in WIDTHS:
        params = BGPParams(pipeline_width=width)
        machine = Machine(torus_dims=(4, 4, 4), mode=Mode.QUAD, params=params)
        result = run_collective(machine, "bcast", "torus-shaddr", MESSAGE)
        series.add(result.bandwidth_mbs)
    best = max(series.values)
    default_index = WIDTHS.index(64 * KIB)
    return ExperimentResult(
        "ablation_pwidth",
        "Pipeline width (bytes)",
        WIDTHS,
        [series],
        metrics={
            "best_mbs": best,
            "default_fraction_of_best": series.values[default_index] / best,
            "smallest_fraction_of_best": series.values[0] / best,
            "largest_fraction_of_best": series.values[-1] / best,
        },
    )


def test_ablation_pipeline_width(benchmark):
    result = benchmark.pedantic(run_pwidth_ablation, rounds=1, iterations=1)
    publish(result)
    # The optimum is interior: tiny widths drown in per-chunk costs
    # (descriptors, counter updates, polls)...
    assert result.metrics["smallest_fraction_of_best"] < 0.97
    # ...and very large widths destroy network/intra-node overlap, badly.
    assert result.metrics["largest_fraction_of_best"] < 0.6
    # On this 64-node machine the fill-dominated regime rewards widths
    # finer than the paper's 64 KB default, which still performs usefully.
    assert result.metrics["default_fraction_of_best"] > 0.6
