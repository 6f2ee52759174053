"""Bit-exact regression gate for the simulator's timing arithmetic.

Replays the recorded scenario battery (``benchmarks/record_perrank.py``)
and asserts the per-rank, per-iteration elapsed-time matrices reproduce
the committed reference floats exactly — on the default incremental
solver *and* on the from-scratch reference solver — so the two paths are
pinned to each other and to history at the last-bit level.
"""

import json
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).parent.parent / "benchmarks"
REFERENCE_PATH = BENCH_DIR / "results" / "perrank_reference.json"


def _replay():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        from record_perrank import simulate_battery
    finally:
        sys.path.pop(0)
    return simulate_battery()


def _assert_matches_reference(records):
    with open(REFERENCE_PATH) as handle:
        reference = json.load(handle)["scenarios"]
    assert set(records) == set(reference)
    for scenario_id, record in records.items():
        expected = reference[scenario_id]
        assert record["times"] == expected["times"], (
            f"{scenario_id}: per-rank time matrix diverged from reference"
        )
        assert record["elapsed_us"] == expected["elapsed_us"], scenario_id
        assert record["iterations_us"] == expected["iterations_us"], (
            scenario_id
        )


def test_incremental_solver_reproduces_reference():
    _assert_matches_reference(_replay())


def test_reference_solver_reproduces_reference(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
    _assert_matches_reference(_replay())


def test_debug_mode_reproduces_reference(monkeypatch):
    """The accumulator cross-checks must be pure observers."""
    monkeypatch.setenv("REPRO_SIM_DEBUG", "1")
    _assert_matches_reference(_replay())


def _measure_matrix(kind, algorithm, x, iters, steady_state):
    import repro.bench.harness as harness
    from repro.hardware.machine import Machine, Mode

    captured = []
    original = harness._measure

    def capture(*args, **kwargs):
        times = original(*args, **kwargs)
        captured.append(times)
        return times

    harness._measure = capture
    try:
        machine = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
        result = harness.run_collective(
            machine, kind, algorithm, x, iters=iters, steady_state=steady_state
        )
    finally:
        harness._measure = original
    return captured[0], result.iterations_us, result.elapsed_us


@pytest.mark.parametrize(
    "kind, algorithm, x",
    [
        ("bcast", "torus-shaddr", 65536),
        ("bcast", "tree-dma-fifo", 16384),
        ("allreduce", "allreduce-torus-shaddr", 2048),
    ],
)
def test_steady_state_short_circuit_is_exact(kind, algorithm, x):
    """Full loop and short-circuited loop give bit-identical matrices."""
    full = _measure_matrix(kind, algorithm, x, 6, steady_state=False)
    short = _measure_matrix(kind, algorithm, x, 6, steady_state=True)
    assert short == full
