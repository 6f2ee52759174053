"""Ablation: Bcast FIFO geometry (slot size and depth).

The FIFO multiplexes all six torus connections (section V-A-2); its
geometry trades per-slot bookkeeping against staging capacity.  Tiny slots
drown in atomics/flags; a deeper FIFO helps until the staging capacity
stops being the constraint.
"""

from conftest import publish

from repro.bench.experiments import ExperimentResult
from repro.bench.harness import run_collective
from repro.bench.report import Series
from repro.hardware import BGPParams, Machine, Mode
from repro.util.units import KIB, MIB

SLOT_SIZES = [1 * KIB, 2 * KIB, 8 * KIB, 32 * KIB]
DEPTHS = [2, 4, 16, 64]
MESSAGE = 2 * MIB


def run_fifo_ablation() -> ExperimentResult:
    by_slot = Series("vary slot size (16 slots)")
    for slot in SLOT_SIZES:
        params = BGPParams(fifo_slot_bytes=slot, fifo_slots=16)
        machine = Machine(torus_dims=(4, 4, 4), mode=Mode.QUAD, params=params)
        result = run_collective(machine, "bcast", "torus-fifo", MESSAGE)
        by_slot.add(result.bandwidth_mbs)
    by_depth = Series("vary depth (8K slots)")
    for depth in DEPTHS:
        params = BGPParams(fifo_slot_bytes=8 * KIB, fifo_slots=depth)
        machine = Machine(torus_dims=(4, 4, 4), mode=Mode.QUAD, params=params)
        result = run_collective(machine, "bcast", "torus-fifo", MESSAGE)
        by_depth.add(result.bandwidth_mbs)
    return ExperimentResult(
        "ablation_fifo",
        "index (see series captions)",
        list(range(len(SLOT_SIZES))),
        [by_slot, by_depth],
        metrics={
            "slot_1K_vs_8K": by_slot.values[0] / by_slot.values[2],
            "depth_2_vs_16": by_depth.values[0] / by_depth.values[2],
        },
        x_format="count",
    )


def test_ablation_fifo_geometry(benchmark):
    result = benchmark.pedantic(run_fifo_ablation, rounds=1, iterations=1)
    publish(
        result,
        extra_lines=[
            f"slot sizes swept: {SLOT_SIZES}",
            f"depths swept: {DEPTHS}",
        ],
    )
    # 1K slots pay noticeably more bookkeeping than the default 8K...
    assert result.metrics["slot_1K_vs_8K"] < 0.97
    # ...and a nearly-degenerate depth costs throughput vs the default.
    assert result.metrics["depth_2_vs_16"] <= 1.0
