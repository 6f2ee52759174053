"""Two-way solver equivalence: slowpath / incremental.

The fair-share solver has two DES altitudes (``docs/performance.md``):
the from-scratch reference traversal and the component-cache incremental
path.  These tests pin the contract that both produce bit-identical
results — on randomized flow graphs, and through real collectives with
mid-window capacity faults — and that ``compare_bench`` therefore gates
BENCH entries recorded under either solver on their points alone.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_collective
from repro.hardware.fault_schedule import (
    FaultSchedule,
    LinkFlap,
    NodeSlowdown,
    TreePortFlap,
)
from repro.hardware.machine import Machine, Mode
from repro.sim import Engine, FlowNetwork
from repro.telemetry import compare_bench

#: solver label -> FlowNetwork.configure pins (explicit, so they survive
#: the harness's per-run refresh_config)
SOLVERS = {
    "slowpath": {"incremental": False},
    "incremental": {"incremental": True},
}


# ---------------------------------------------------------------------------
# randomized flow graphs
# ---------------------------------------------------------------------------

@st.composite
def flow_schedules(draw):
    """Random resources plus staggered transfers and a capacity flip.

    Small integer pools keep progressive filling in exact float
    territory — the regime the simulator itself operates in.
    """
    n_resources = draw(st.integers(min_value=1, max_value=5))
    capacities = [
        float(draw(st.integers(min_value=1, max_value=64)))
        for _ in range(n_resources)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = []
    for _ in range(n_flows):
        subset = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_resources - 1),
                min_size=1,
                max_size=min(3, n_resources),
                unique=True,
            )
        )
        usage = {
            index: float(draw(st.integers(min_value=1, max_value=3)))
            for index in subset
        }
        nbytes = float(draw(st.integers(min_value=1, max_value=4096)))
        cap = draw(
            st.one_of(
                st.none(), st.integers(min_value=1, max_value=32).map(float)
            )
        )
        start = float(draw(st.integers(min_value=0, max_value=50)))
        flows.append((start, nbytes, cap, usage))
    change = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=1, max_value=40),  # when
                st.integers(min_value=0, max_value=n_resources - 1),
                st.integers(min_value=1, max_value=64),  # new capacity
            ),
        )
    )
    return capacities, flows, change


def _simulate(capacities, flows, change, knobs):
    engine = Engine()
    # debug=True checks the accumulators (and, on the incremental leg,
    # the component cache) against a from-scratch recompute every fill.
    net = FlowNetwork(engine, debug=True, **knobs)
    resources = [
        net.add_resource(f"r{i}", capacity)
        for i, capacity in enumerate(capacities)
    ]
    completions = {}

    def proc(index, start, nbytes, cap, usage):
        if start > 0:
            yield engine.timeout(start)
        yield net.transfer(
            {resources[r]: w for r, w in usage.items()},
            nbytes,
            cap=cap,
            name=f"f{index}",
        )
        completions[index] = engine.now

    for index, (start, nbytes, cap, usage) in enumerate(flows):
        engine.spawn(proc(index, start, nbytes, cap, usage))
    if change is not None:
        when, r_index, new_capacity = change

        def reconfigure():
            yield engine.timeout(float(when))
            resources[r_index].set_capacity(float(new_capacity))

        engine.spawn(reconfigure())
    engine.run()
    return completions


@settings(max_examples=50, deadline=None)
@given(flow_schedules())
def test_solvers_agree_on_random_graphs(schedule):
    capacities, flows, change = schedule
    results = {
        name: _simulate(capacities, flows, change, knobs)
        for name, knobs in SOLVERS.items()
    }
    # exact float equality, per-flow completion times
    assert results["slowpath"] == results["incremental"]


# ---------------------------------------------------------------------------
# real collectives under mid-window capacity faults
# ---------------------------------------------------------------------------

CAPACITY_FAULTS = [
    LinkFlap(start=5.0, duration=60.0, node=1, factor=0.25),
    NodeSlowdown(start=10.0, duration=80.0, node=2, factor=0.5),
    TreePortFlap(start=0.0, duration=50.0, node=3, factor=0.5),
]


def _collective_run(family, algorithm, x, knobs, faults):
    machine = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
    machine.flownet.configure(debug=True, **knobs)
    if faults:
        FaultSchedule(list(faults)).install(machine)
    result = run_collective(
        machine, family, algorithm, x, iters=2, steady_state=False
    )
    return result.elapsed_us, tuple(result.iterations_us)


@pytest.mark.parametrize(
    "family,algorithm,x",
    [("bcast", "tree-shaddr", 32768), ("bcast", "torus-shaddr", 32768)],
)
def test_solvers_agree_under_capacity_faults(family, algorithm, x):
    """LinkFlap/NodeSlowdown/TreePortFlap flip resource capacities while
    flows are in flight — the re-solve path every solver must get right."""
    results = {
        name: _collective_run(family, algorithm, x, knobs, CAPACITY_FAULTS)
        for name, knobs in SOLVERS.items()
    }
    assert results["slowpath"] == results["incremental"]
    # Guard against vacuity: the fault windows must actually perturb the
    # timing, or the equivalence above proved nothing.
    clean = _collective_run(family, algorithm, x, SOLVERS["slowpath"], None)
    assert results["slowpath"] != clean


# ---------------------------------------------------------------------------
# compare_bench gates across solver tags
# ---------------------------------------------------------------------------

def _bench(base_entry, new_entry):
    return {"entries": {"base": base_entry, "new": new_entry}}


def _entry(solver=None, elapsed=100.0, **extra):
    entry = {
        "smoke": False,
        "sweeps": {
            "tree_bcast": {"points": [{"x": 65536, "elapsed_us": elapsed}]}
        },
    }
    if solver is not None:
        entry["solver"] = solver
    entry.update(extra)
    return entry


def test_compare_bench_gates_across_solver_tags():
    """Solver tags are a record, not a gate input: entries tagged by any
    configuration, or carrying only the legacy slowpath flag, gate on
    their points."""
    tags = ({"solver": "slowpath"}, {"solver": "incremental"},
            {"solver": "vectorized+analytic"}, {"slowpath": True})
    for base_tag in tags:
        for new_tag in tags:
            bench = _bench(_entry(elapsed=100.0, **base_tag),
                           _entry(elapsed=100.0, **new_tag))
            assert compare_bench(bench, "base", "new", tolerance=0.0) == []
            bench = _bench(_entry(elapsed=100.0, **base_tag),
                           _entry(elapsed=200.0, **new_tag))
            drifts = compare_bench(bench, "base", "new", tolerance=0.0)
            assert len(drifts) == 1 and "elapsed_us" in drifts[0]


def test_compare_bench_same_solver_unaffected():
    bench = _bench(_entry(solver="incremental"), _entry(solver="incremental"))
    assert compare_bench(bench, "base", "new") == []

