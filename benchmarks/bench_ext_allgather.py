"""Extension (paper section VII future work): MPI_Allgather.

Applies the same intra-node contrast as the broadcast study to a node-level
ring allgather: DMA-staged baseline vs shared-address with message-counter
publication.  The shared-address variant should win, for the same reasons
Figure 10's Torus+Shaddr wins: no staging copies and a DMA freed for the
network.
"""

from conftest import publish

from repro.bench.experiments import ExperimentResult
from repro.bench.harness import run_collective
from repro.bench.report import Series
from repro.hardware import Machine, Mode
from repro.util.units import KIB

BLOCKS = [4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB]


def run_allgather_extension() -> ExperimentResult:
    series = [
        Series("Allgather+Shaddr (MB/s)"),
        Series("Allgather DMA (MB/s)"),
    ]
    names = ["allgather-ring-shaddr", "allgather-ring-current"]
    for block in BLOCKS:
        for s, name in zip(series, names):
            machine = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
            result = run_collective(machine, "allgather", name, block)
            s.add(result.bandwidth_mbs)
    ratios = [
        a / b for a, b in zip(series[0].values, series[1].values)
    ]
    return ExperimentResult(
        "ext_allgather",
        "Block size (bytes)",
        BLOCKS,
        series,
        metrics={
            "gain_at_largest": ratios[-1],
            "min_gain": min(ratios),
        },
    )


def test_extension_allgather(benchmark):
    result = benchmark.pedantic(
        run_allgather_extension, rounds=1, iterations=1
    )
    publish(result)
    # Shared address wins at every block size.
    assert result.metrics["min_gain"] > 1.0
