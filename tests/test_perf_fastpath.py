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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.machine import Machine, Mode
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

    machine = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
    recorder = machine.attach_telemetry()
    run_collective(machine, "bcast", "torus-shaddr", 16384, iters=2)
    assert recorder.flow_events and not recorder.open_flows
    return recorder.flow_events


def test_engine_determinism_identical_trace_logs():
    assert _traced_run() == _traced_run()


def test_trace_disabled_is_default_and_cheap():
    from repro.telemetry.recorder import TelemetryRecorder

    engine = Engine()
    assert engine.telemetry is None
    net = FlowNetwork(engine)
    port = net.add_resource("mem", 16.0)
    net.transfer({port: 1.0}, 32.0, name="dropped")
    engine.run()
    engine.telemetry = recorder = TelemetryRecorder()
    net.transfer({port: 1.0}, 32.0, name="kept")
    engine.run()
    assert recorder.flow_events == [(2.0, 4.0, "kept", 5)]
    assert recorder.open_flows == {}


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


def test_debug_mode_detects_corrupted_certificate():
    engine = Engine()
    net = FlowNetwork(engine, incremental=True, debug=True)
    hub = net.add_resource("hub", 1000.0)
    ports = [net.add_resource(f"p{i}", 5.0) for i in range(33)]
    # 32 flows, each bound by its own port in the fill's only round: the
    # full fill of the 32nd leaves a certificate
    flows = [
        net.transfer({hub: 1.0, ports[i]: 1.0}, 1024.0, name=f"f{i}")
        for i in range(32)
    ]
    root = flows[0].component
    while root.parent is not None:
        root = root.parent
    root.cert.levels[0] += 1.0
    # the 33rd joins by a delta re-fill, which reads its rate off the
    # corrupted level
    with pytest.raises(SimulationError, match="delta re-fill"):
        net.transfer({hub: 1.0, ports[32]: 1.0}, 1024.0, name="f32")


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


def test_rebase_time_drops_certificates():
    """``Machine.rebase_time`` advances in-flight flows outside any
    re-solve, so no component may count as resolved at the instant its
    certificate names.  Here a component is certified at t=5, the clock is
    rebased at t=8, and a flow joins at 5 on the rebased clock: it must not
    be served by a delta re-fill, or the other flows skip their advance
    to that instant and every float after it drifts from the reference."""
    def run(incremental):
        machine = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
        engine, net = machine.engine, machine.flownet
        net.configure(incremental=incremental, debug=False)
        hub = net.add_resource("hub", 1000.0)
        ports = [net.add_resource(f"p{i}", 10.0 / 3.0) for i in range(34)]
        done = {}

        def flow(index, start):
            yield engine.timeout(start)
            yield net.transfer(
                {hub: 1.0, ports[index]: 1.0}, 1000.0, name=f"f{index}"
            )
            done[index] = engine.now

        def barrier():
            yield engine.timeout(8.0)
            machine.rebase_time()

        for index in range(32):
            engine.spawn(flow(index, 0.0))
        engine.spawn(flow(32, 5.0))
        engine.spawn(barrier())
        engine.spawn(flow(33, 13.0))  # 5.0 on the rebased clock
        engine.run()
        busy = [r.busy_integral(engine.now) for r in net.resources]
        return list(done.items()), busy

    assert run(incremental=True) == run(incremental=False)
