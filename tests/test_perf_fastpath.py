"""Equivalence and bookkeeping tests for the simulator fast paths.

Covers the tentpole invariants of the perf work:

* the incremental (component-cache) solver is bit-identical to the
  from-scratch reference solver on randomized flow/resource graphs with
  staggered arrivals, departures, and capacity changes;
* the engine is deterministic (identical runs produce identical traces)
  and its process table stays flat under continuous spawning;
* the O(1) load/weight accumulators agree with recomputation, and the
  debug mode actually detects corruption;
* clock rebasing preserves pending-event order and makes repeated
  workloads bit-identical.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, FlowNetwork, SimulationError


# ---------------------------------------------------------------------------
# incremental vs reference solver on randomized graphs
# ---------------------------------------------------------------------------

@st.composite
def flow_schedules(draw):
    """A random resource set plus a staggered schedule of transfers.

    Weights, capacities, sizes, and start offsets are drawn from small
    integer pools so progressive filling stays in exact float arithmetic
    territory — the regime the simulator itself operates in.
    """
    n_resources = draw(st.integers(min_value=1, max_value=6))
    capacities = [
        float(draw(st.integers(min_value=1, max_value=64)))
        for _ in range(n_resources)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=12))
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
    # Optional mid-run capacity change (exercises set_capacity re-solves).
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


def _simulate(capacities, flows, change, incremental):
    engine = Engine()
    net = FlowNetwork(engine, incremental=incremental, debug=True)
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


@settings(max_examples=60, deadline=None)
@given(flow_schedules())
def test_incremental_solver_matches_reference(schedule):
    capacities, flows, change = schedule
    fast = _simulate(capacities, flows, change, incremental=True)
    slow = _simulate(capacities, flows, change, incremental=False)
    assert fast == slow  # exact float equality, per-flow completion times


def test_incremental_solver_handles_component_splits():
    """A finishing multi-resource flow can split its component; the cache
    must re-carve and keep matching the reference solver."""
    # bridge uses r0+r1; left lives on r0, right on r1.  When the bridge
    # finishes the component splits in two.
    capacities = [8.0, 8.0]
    flows = [
        (0.0, 64.0, None, {0: 1.0, 1: 1.0}),   # the bridge
        (1.0, 512.0, None, {0: 1.0}),
        (1.0, 1024.0, None, {1: 1.0}),
        (30.0, 256.0, None, {0: 2.0}),          # arrives after the split
    ]
    fast = _simulate(capacities, flows, None, incremental=True)
    slow = _simulate(capacities, flows, None, incremental=False)
    assert fast == slow


# ---------------------------------------------------------------------------
# engine determinism and bookkeeping
# ---------------------------------------------------------------------------

def _traced_run():
    from repro.bench.harness import run_collective
    from repro.hardware.machine import Machine, Mode

    machine = Machine(
        torus_dims=(2, 2, 2), mode=Mode.QUAD, engine=Engine(trace=True)
    )
    run_collective(machine, "bcast", "torus-shaddr", 16384, iters=2)
    return machine.engine.trace_log


def test_engine_determinism_identical_trace_logs():
    assert _traced_run() == _traced_run()


def test_engine_prunes_finished_processes():
    engine = Engine()

    def one_shot():
        yield engine.timeout(1.0)

    def spawner():
        for _ in range(5000):
            yield engine.spawn(one_shot())

    engine.spawn(spawner())
    engine.run()
    # 5001 processes went through; the table must have stayed amortized.
    assert len(engine._processes) < 600
    assert engine.active_processes() == []


def test_trace_disabled_is_default_and_cheap():
    engine = Engine()
    engine.trace("dropped")
    assert engine.trace_log == []
    engine.trace_enabled = True
    engine.trace("kept")
    assert engine.trace_log == [(0.0, "kept")]


# ---------------------------------------------------------------------------
# accumulators and debug mode
# ---------------------------------------------------------------------------

def test_load_accumulator_matches_recompute():
    engine = Engine()
    net = FlowNetwork(engine)
    port = net.add_resource("mem", 16.0)
    net.transfer({port: 2.0}, 1024.0, name="a")
    net.transfer({port: 1.0}, 2048.0, name="b")
    fresh = sum(f.rate * f.usage[port] for f in port.flows)
    assert port.load == fresh
    engine.run()
    assert port.load == 0.0
    assert port._wsum == 0.0


def test_debug_mode_detects_corrupted_accumulator():
    engine = Engine()
    net = FlowNetwork(engine, debug=True)
    port = net.add_resource("mem", 16.0)
    net.transfer({port: 1.0}, 1024.0, name="a")
    port._load += 1.0  # simulate accumulator drift
    with pytest.raises(SimulationError, match="drifted"):
        port.load


def test_debug_mode_detects_corrupted_weight_sum():
    engine = Engine()
    net = FlowNetwork(engine, debug=True)
    port = net.add_resource("mem", 16.0)
    net.transfer({port: 1.0}, 1024.0, name="a")
    port._wsum += 1.0
    with pytest.raises(SimulationError, match="drifted"):
        net.transfer({port: 1.0}, 1024.0, name="b")


# ---------------------------------------------------------------------------
# clock rebasing
# ---------------------------------------------------------------------------

def test_rebase_shifts_pending_events_and_preserves_order():
    engine = Engine()
    fired = []
    engine.call_at(100.0, fired.append, "a")
    engine.call_at(100.0, fired.append, "b")
    engine.call_at(250.0, fired.append, "c")
    engine.now = 100.0
    engine.rebase()
    assert engine.now == 0.0
    engine.run()
    assert fired == ["a", "b", "c"]
    assert engine.now == 150.0


def test_rebase_makes_repeated_workloads_bit_identical():
    """The same transfer started at t=0 and after a rebased epoch must
    take exactly the same simulated time."""
    engine = Engine()
    net = FlowNetwork(engine)
    port = net.add_resource("mem", 7.0)
    durations = []

    def epoch():
        start = engine.now
        # An irrational-ish rate split: 3 flows share capacity 7.
        flows = [
            net.transfer({port: 1.0}, 1000.0, name=f"e{i}") for i in range(3)
        ]
        for flow in flows:
            yield flow
        durations.append(engine.now - start)

    def driver():
        yield from epoch()
        yield engine.timeout(0.123456789)
        engine.rebase()
        yield from epoch()

    engine.spawn(driver())
    engine.run()
    assert durations[0] == durations[1]
