"""Two-way solver equivalence: slowpath / incremental.

The fair-share solver has two DES altitudes (``docs/performance.md``):
the from-scratch reference traversal and the component-cache incremental
path.  These tests pin the contract that both produce bit-identical
results — on randomized flow graphs, on repeated bursts with float
residue and capacity changes between them, on torus-like cascades that
the incremental path's delta re-fills serve, and through real
collectives with mid-window capacity faults — and that
``compare_bench`` therefore gates BENCH entries recorded under either
solver on their points alone.
"""

import pytest
from hypothesis import example, given, settings
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
from repro.sim.flownet import _CERT_MIN_FLOWS
from repro.telemetry import compare_bench

#: solver label -> FlowNetwork.configure arguments, set on each fresh
#: machine before it runs (they beat the environment)
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
# repeated bursts: float residue and capacity changes between epochs
# ---------------------------------------------------------------------------

@st.composite
def repeated_bursts(draw):
    """One burst of 8-12 flows sharing a hub resource, run in 3-4 epochs.

    Every flow starts within 2 µs and moves at least 2 KiB at no more than
    640 B/µs, so each epoch re-solves a component of 8 or more flows,
    fewer than the 32 a delta re-fill needs: every re-solve is a full
    fill.  Epochs 0 and 1 are identical.  Before a later epoch a capacity
    may change; during one, an extra 0.1-weight flow on the hub may come
    and go first, leaving float residue in the hub's running weight sum
    under an unchanged component (0.1 + 0.2 - 0.1 != 0.2).  Non-integer
    weights leave residue within an epoch too.
    """
    n_resources = draw(st.integers(min_value=2, max_value=4))
    capacities = [
        float(draw(st.integers(min_value=1, max_value=64)))
        for _ in range(n_resources)
    ]
    weights = st.sampled_from([1.0, 2.0, 3.0, 0.1, 0.2, 0.3])
    flows = []
    for _ in range(draw(st.integers(min_value=8, max_value=12))):
        others = draw(
            st.lists(
                st.integers(min_value=1, max_value=n_resources - 1),
                max_size=2,
                unique=True,
            )
        )
        usage = {index: draw(weights) for index in [0] + others}
        nbytes = float(draw(st.integers(min_value=2048, max_value=8192)))
        cap = draw(
            st.one_of(
                st.none(), st.integers(min_value=1, max_value=32).map(float)
            )
        )
        start = float(draw(st.integers(min_value=0, max_value=2)))
        flows.append((start, nbytes, cap, usage))
    repeats = draw(st.integers(min_value=3, max_value=4))
    change = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=2, max_value=repeats - 1),  # epoch
                st.integers(min_value=0, max_value=n_resources - 1),
                st.integers(min_value=1, max_value=64),  # new capacity
            ),
        )
    )
    residue = draw(
        st.one_of(st.none(), st.integers(min_value=2, max_value=repeats - 1))
    )
    return capacities, flows, repeats, change, residue


def _simulate_bursts(capacities, flows, repeats, change, residue, knobs,
                     debug):
    """Per-flow completion times."""
    engine = Engine()
    net = FlowNetwork(engine, debug=debug, **knobs)
    resources = [
        net.add_resource(f"r{i}", capacity)
        for i, capacity in enumerate(capacities)
    ]
    completions = {}

    def proc(name, start, nbytes, cap, usage):
        if start > 0:
            yield engine.timeout(start)
        yield net.transfer(
            {resources[r]: w for r, w in usage.items()},
            nbytes,
            cap=cap,
            name=name,
        )
        completions[name] = engine.now

    def run_epochs():
        for epoch in range(repeats):
            if change is not None and change[0] == epoch:
                resources[change[1]].set_capacity(float(change[2]))
            procs = []
            if residue == epoch:
                procs.append(
                    engine.spawn(proc(f"e{epoch}.x", 0.0, 16.0, None, {0: 0.1}))
                )
            for index, flow in enumerate(flows):
                procs.append(engine.spawn(proc(f"e{epoch}.f{index}", *flow)))
            for process in procs:
                yield process
            engine.rebase()

    engine.spawn(run_epochs())
    engine.run()
    return completions


#: epoch 2 repeats the burst after a 0.1-weight hub flow has come and
#: gone, so the fill is seeded with a running weight sum (0.1 + 8.2 -
#: 0.1) that differs from epoch 0's in its last bits
_RESIDUE_BURST = (
    [1.0, 1.0],
    [(0.0, 2048.0, None, {0: 0.2, 1: 1.0})]
    + [(0.0, 2048.0, None, {0: 1.0})] * 8,
    3, None, 2,
)
#: eight flows whose hub slows down before epoch 2: the repeated burst
#: must be solved at the new capacity, not the old one
_CAPACITY_BURST = (
    [8.0, 5.0],
    [(0.0, 2048.0 + 256.0 * i, None, {0: 1.0}) for i in range(8)],
    3, (2, 0, 3), None,
)


@settings(max_examples=40, deadline=None)
@given(repeated_bursts())
@example(_RESIDUE_BURST)
@example(_CAPACITY_BURST)
def test_solvers_agree_on_repeated_bursts(schedule):
    slow = _simulate_bursts(*schedule, SOLVERS["slowpath"], debug=True)
    fast = _simulate_bursts(*schedule, SOLVERS["incremental"], debug=False)
    # exact float equality, per-flow completion times
    assert fast == slow
    # debug mode cross-checks the accumulators and the component cache on
    # every fill
    checked = _simulate_bursts(*schedule, SOLVERS["incremental"], debug=True)
    assert checked == slow


# ---------------------------------------------------------------------------
# torus-like cascades: the incremental path's delta re-fills
# ---------------------------------------------------------------------------

#: per node: a DMA-class and a memory-class resource; plus torus channels
DMA_CAPACITY, MEM_CAPACITY, CHANNEL_CAPACITY = 5100.0, 16000.0, 425.0
#: a core copy's rate cap
COPY_CAP = 2000.0


@st.composite
def torus_like_schedules(draw):
    """Chains of equal-size transfers on a few torus-like nodes.

    Each chain runs its transfers back to back, with a gap of 0, 0.1 or
    1 µs between them: either capped single-resource copies (weight 2 on
    one node's memory), or uncapped line transfers over two or three
    nodes' DMA and memory plus one channel.  With 36-48 chains the
    component is wide enough for delta re-fills, and equal chunk sizes
    make many flows finish at the same instant, so finishes cascade.  A
    resource may change capacity mid-run.
    """
    n_nodes = draw(st.integers(min_value=3, max_value=5))
    n_channels = draw(st.integers(min_value=2, max_value=4))
    chunk = float(draw(st.sampled_from([1024, 4096, 16384])))
    gaps = st.sampled_from([0.0, 0.1, 1.0])
    chains = []
    for _ in range(draw(st.integers(min_value=36, max_value=48))):
        if draw(st.booleans()):
            node = draw(st.integers(min_value=0, max_value=n_nodes - 1))
            usage = {("mem", node): 2.0}
            cap = COPY_CAP
        else:
            nodes = draw(st.lists(
                st.integers(min_value=0, max_value=n_nodes - 1),
                min_size=2, max_size=3, unique=True,
            ))
            usage = {(kind, node): 1.0
                     for node in nodes for kind in ("dma", "mem")}
            channel = draw(st.integers(min_value=0, max_value=n_channels - 1))
            usage[("chan", channel)] = 1.0
            cap = None
        count = draw(st.integers(min_value=2, max_value=4))
        chains.append((usage, cap, draw(st.lists(
            gaps, min_size=count, max_size=count))))
    change = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from([0.5, 2.0, 6.0]),  # when
        st.sampled_from(["dma", "mem", "chan"]),
        st.sampled_from([0.5, 0.8]),  # capacity factor
    )))
    return n_nodes, n_channels, chunk, chains, change


def _simulate_torus_like(schedule, incremental, debug=False):
    """Per-flow completion times in completion order, every resource's
    busy integral, how many events the run scheduled, and the network."""
    n_nodes, n_channels, chunk, chains, change = schedule
    engine = Engine()
    net = FlowNetwork(engine, incremental=incremental, debug=debug)
    resources = {}
    for node in range(n_nodes):
        resources[("dma", node)] = net.add_resource(f"dma{node}", DMA_CAPACITY)
        resources[("mem", node)] = net.add_resource(f"mem{node}", MEM_CAPACITY)
    for channel in range(n_channels):
        resources[("chan", channel)] = net.add_resource(
            f"chan{channel}", CHANNEL_CAPACITY)
    completions = {}

    def chain(index, usage, cap, chain_gaps):
        for step, gap in enumerate(chain_gaps):
            if gap:
                yield engine.timeout(gap)
            yield net.transfer(
                {resources[key]: w for key, w in usage.items()}, chunk,
                cap=cap, name=f"c{index}.{step}",
            )
            completions[(index, step)] = engine.now

    for index, (usage, cap, chain_gaps) in enumerate(chains):
        engine.spawn(chain(index, usage, cap, chain_gaps))
    if change is not None:
        when, kind, factor = change
        resource = resources[(kind, 0)]

        def reconfigure():
            yield engine.timeout(when)
            resource.set_capacity(resource.capacity * factor)

        engine.spawn(reconfigure())
    engine.run()
    busy = [r.busy_integral(engine.now) for r in net.resources]
    return list(completions.items()), busy, engine._seq, net


def test_solvers_agree_on_torus_like_cascades():
    """Delta re-fills, including those inside finish cascades, leave every
    completion time and busy integral exactly where the reference path
    puts them, and schedule the same events; debug mode cross-checks each
    one against a full fill."""
    totals = {"delta_refills": 0, "delta_cascades": 0}

    @settings(max_examples=20, deadline=None)
    @given(torus_like_schedules())
    def check(schedule):
        slow = _simulate_torus_like(schedule, incremental=False)
        fast = _simulate_torus_like(schedule, incremental=True)
        # exact float equality, and the same order of completions
        assert fast[:3] == slow[:3]
        for name in totals:
            totals[name] += getattr(fast[3], name)
        checked = _simulate_torus_like(schedule, incremental=True, debug=True)
        assert checked[:3] == slow[:3]

    check()
    # Guard against vacuity: the path under test ran, in cascades too.
    assert totals["delta_refills"] > 0
    assert totals["delta_cascades"] > 0


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


def _measure_counts(knobs, family, algorithm, x, dims, watch=None):
    """One 2-iteration run: its elapsed time, how many events it
    scheduled, and its flow network.  ``watch``, if given, is called
    with the network before the run."""
    machine = Machine(torus_dims=dims, mode=Mode.QUAD)
    # debug pinned off: under debug every delta re-fill runs a full fill
    # as well
    machine.flownet.configure(debug=False, **knobs)
    if watch is not None:
        watch(machine.flownet)
    result = run_collective(
        machine, family, algorithm, x, iters=2, steady_state=False
    )
    return (result.elapsed_us, machine.engine._seq), machine.flownet


def test_delta_refills_serve_most_wide_torus_allreduce_resolves():
    """On a 4x4x4 torus the allreduce's components span the machine, and
    most of their re-solves add or remove one flow without moving any
    round of the fill: delta re-fills serve more of them than full fills
    of ``_CERT_MIN_FLOWS`` or more flows do, few tries are refused, and
    the answer is the slowpath's."""
    point = ("allreduce", "allreduce-torus-shaddr", 16384, (4, 4, 4))
    slow, slow_net = _measure_counts(SOLVERS["slowpath"], *point)
    fill_sizes = []

    def count_fills(net):
        fill = net._fill_scalar

        def counting_fill(flows, resources, record=False):
            fill_sizes.append(len(flows))
            return fill(flows, resources, record)

        net._fill_scalar = counting_fill

    fast, fast_net = _measure_counts(
        SOLVERS["incremental"], *point, watch=count_fills
    )
    assert fast == slow
    # every re-solve is served by a delta re-fill or a full fill
    assert slow_net.full_fills == slow_net.resolves
    assert fast_net.full_fills == len(fill_sizes)
    wide_fills = sum(1 for size in fill_sizes if size >= _CERT_MIN_FLOWS)
    assert fast_net.delta_refills > wide_fills > 0
    assert fast_net.delta_refusals < fast_net.delta_refills // 10


def test_delta_post_loop_schedules_the_full_paths_events():
    """A delta re-fill inside a finish cascade must make the full path's
    deadline pushes: the due flows it finds still queued, then the
    joining flow.  A missed push moves no answer here, only the number of
    events, so the test compares that count as well."""
    point = ("bcast", "torus-shaddr", 1 << 20, (2, 2, 2))
    slow, _ = _measure_counts(SOLVERS["slowpath"], *point)
    fast, fast_net = _measure_counts(SOLVERS["incremental"], *point)
    assert fast == slow
    assert fast_net.delta_cascades > 0


def _simultaneous_finishes(n_flows, cap, incremental, debug=False):
    """``n_flows`` equal flows over one hub, each also on one of four
    side resources, all at one rate: the side resources' share, or
    ``cap`` if it is lower.  So every flow is due at one instant.
    Returns (flow index, completion time) in completion order, and the
    network."""
    engine = Engine()
    net = FlowNetwork(engine, incremental=incremental, debug=debug)
    hub = net.add_resource("hub", 1000.0)
    sides = [net.add_resource(f"side{i}", 50.0) for i in range(4)]
    completions = []
    for index in range(n_flows):
        flow = net.transfer({hub: 1.0, sides[index % 4]: 1.0}, 4096.0,
                            cap=cap, name=f"f{index}")
        flow.event.on_trigger(
            lambda _v, index=index: completions.append((index, engine.now))
        )
    engine.run()
    return completions, net


@pytest.mark.parametrize("cap", [None, 0.25])
def test_simultaneous_finishes_cascade_in_a_loop(cap):
    """600 flows finishing at one instant finish in one loop, not by
    recursion: every solver setting runs at the interpreter's default
    recursion limit, with equal completion times and order.  Bound by
    the side resources, each finish moves every other rate and a full
    fill serves its re-solve; bound by their caps, no rate moves and
    delta re-fills serve the cascade."""
    slow, _ = _simultaneous_finishes(600, cap, incremental=False)
    fast, fast_net = _simultaneous_finishes(600, cap, incremental=True)
    checked, _ = _simultaneous_finishes(
        600, cap, incremental=True, debug=True)
    assert len(slow) == 600
    assert len({when for _index, when in slow}) == 1
    assert fast == slow
    assert checked == slow
    assert (fast_net.delta_cascades > 0) == (cap is not None)


def test_wide_allgather_cascades_answer_as_the_slowpath():
    """allgather-ring-shaddr on a 4x4x4 torus finishes its equal blocks
    in cascades up to 192 flows long, through some ten thousand delta
    re-fills: the incremental path returns the slowpath's answer."""
    machine = Machine(torus_dims=(4, 4, 4), mode=Mode.QUAD)
    machine.flownet.configure(**SOLVERS["incremental"])
    result = run_collective(
        machine, "allgather", "allgather-ring-shaddr", 4096
    )
    assert result.elapsed_us == 2490.239058823532
    assert machine.flownet.delta_cascades > 0


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

