"""Record the per-rank, per-iteration time reference for regression tests.

Runs a battery of small (2x2x2) scenarios covering every collective kind
and the main algorithm families, captures the raw per-rank elapsed-time
matrices out of the Fig-5 harness, and writes them (bit-exact floats) to
``benchmarks/results/perrank_reference.json``.

``tests/test_perrank_reference.py`` replays the battery on every test run
and asserts exact float equality — on the default incremental solver and
on the ``REPRO_SIM_SLOWPATH=1`` reference solver — so any change to the
simulator's arithmetic, event ordering, or the harness's steady-state
machinery is caught at the last-bit level.

Before writing, this script re-runs the whole battery once per fair-share
solver (slowpath reference, incremental) and diffs the raw per-rank
matrices: the two solvers must agree on every float bit, or nothing is
written.

Regenerate (only when an intentional model change invalidates the data)::

    PYTHONPATH=src python benchmarks/record_perrank.py
"""

import json
import pathlib
import sys

import repro.bench.harness as harness
from repro.hardware.machine import Machine, Mode

#: solver label -> FlowNetwork.configure pins (explicit args are sticky
#: across the harness's per-run refresh_config)
SOLVER_KNOBS = {
    "slowpath": {"incremental": False},
    "incremental": {"incremental": True},
}

REFERENCE_PATH = (
    pathlib.Path(__file__).parent / "results" / "perrank_reference.json"
)

#: (kind, algorithm, x, mode, iters) — x is bytes (or count for reduces)
SCENARIOS = [
    ("bcast", "tree-shaddr", 65536, "QUAD", 3),
    ("bcast", "tree-shmem", 4096, "QUAD", 1),
    ("bcast", "tree-dma-fifo", 16384, "QUAD", 1),
    ("bcast", "tree-dma-direct-put", 16384, "QUAD", 1),
    ("bcast", "tree-smp", 16384, "SMP", 1),
    ("bcast", "torus-shaddr", 65536, "QUAD", 3),
    ("bcast", "torus-fifo", 32768, "QUAD", 1),
    ("bcast", "torus-direct-put", 32768, "QUAD", 1),
    ("bcast", "torus-direct-put-smp", 32768, "SMP", 1),
    ("allreduce", "allreduce-torus-shaddr", 2048, "QUAD", 2),
    ("allreduce", "allreduce-torus-current", 2048, "QUAD", 1),
    ("allreduce", "allreduce-tree", 1024, "QUAD", 1),
    ("allgather", "allgather-ring-shaddr", 4096, "QUAD", 1),
    ("alltoall", "alltoall-shift-shaddr", 1024, "QUAD", 1),
    ("gather", "gather-ring-shaddr", 4096, "QUAD", 1),
    ("scatter", "scatter-ring-shaddr", 4096, "QUAD", 1),
    ("reduce", "reduce-torus-shaddr", 2048, "QUAD", 1),
    ("barrier", "barrier-gi", 0, "QUAD", 3),
    ("barrier", "barrier-torus", 0, "QUAD", 1),
]


def simulate_battery(solver=None):
    """Run every scenario; returns ``{scenario_id: record}``.

    ``solver`` pins one of :data:`SOLVER_KNOBS` on every machine before
    its run (None: whatever the environment selects — the configuration
    the committed reference was recorded under).
    """
    captured = []
    original = harness._measure

    def capture(*args, **kwargs):
        times = original(*args, **kwargs)
        captured.append(times)
        return times

    harness._measure = capture
    try:
        out = {}
        for kind, algorithm, x, mode, iters in SCENARIOS:
            scenario_id = f"{kind}:{algorithm}:{x}:{mode}:{iters}"
            captured.clear()
            machine = Machine(torus_dims=(2, 2, 2), mode=Mode[mode])
            if solver is not None:
                machine.flownet.configure(**SOLVER_KNOBS[solver])
            # Barrier ignores x (0 in its scenarios).
            result = harness.run_collective(
                machine, kind, algorithm, x, iters=iters
            )
            out[scenario_id] = {
                "times": captured[0],
                "elapsed_us": result.elapsed_us,
                "iterations_us": result.iterations_us,
            }
    finally:
        harness._measure = original
    return out


def diff_solver_batteries(reference, other):
    """Scenario ids whose raw per-rank matrices differ in any float bit."""
    return sorted(
        scenario_id
        for scenario_id, record in reference.items()
        if other[scenario_id]["times"] != record["times"]
    )


def main():
    records = simulate_battery()
    # Solver equivalence gate: the reference must not depend on which
    # fair-share solver produced it.  Any bit-level disagreement between
    # the two solvers is a solver bug, not a model change — refuse to
    # record until it is fixed.
    for solver in sorted(SOLVER_KNOBS):
        diffs = diff_solver_batteries(records, simulate_battery(solver))
        if diffs:
            print(f"solver {solver!r} diverges from the default run on "
                  f"{len(diffs)} scenario(s):", file=sys.stderr)
            for scenario_id in diffs:
                print(f"  {scenario_id}", file=sys.stderr)
            return 1
        print(f"solver {solver:12s} bit-identical across "
              f"{len(records)} scenarios")
    REFERENCE_PATH.parent.mkdir(exist_ok=True)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump({"dims": [2, 2, 2], "scenarios": records}, handle, indent=1)
        handle.write("\n")
    for scenario_id, record in records.items():
        print(f"{scenario_id:55s} elapsed={record['elapsed_us']:.3f}us")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
