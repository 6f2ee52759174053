"""Two-way solver equivalence: slowpath / incremental.

The fair-share solver has two DES altitudes (``docs/performance.md``):
the from-scratch reference traversal and the component-cache incremental
path.  These tests pin the contract that both produce bit-identical
results — on randomized flow graphs, on repeated bursts that the
incremental path's fill memo replays, and through real collectives with
mid-window capacity faults — and that ``compare_bench`` therefore gates
BENCH entries recorded under either solver on their points alone.
"""

from collections import Counter

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
# repeated bursts: the incremental path's fill memo
# ---------------------------------------------------------------------------

@st.composite
def repeated_bursts(draw):
    """One burst of 8-12 flows sharing a hub resource, run in 3-4 epochs.

    Every flow starts within 2 µs and moves at least 2 KiB at no more than
    640 B/µs, so each epoch re-solves a component of 8 or more flows —
    the fill memo's territory.  Epochs 0 and 1 are identical, so epoch 1
    can only be served from the memo.  Before a later epoch a capacity
    may change; during one, an extra 0.1-weight flow on the hub may come
    and go first, leaving float residue in the hub's weight sum under an
    unchanged component shape (0.1 + 0.2 - 0.1 != 0.2).  Non-integer
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


def _count_fills(net):
    """Count the network's re-solves and runs of its fill loop."""
    calls = Counter()
    resolve, fill = net._resolve, net._fill_scalar

    def counted_resolve(group):
        calls["resolve"] += 1
        resolve(group)

    def counted_fill(group, group_resources):
        calls["fill"] += 1
        fill(group, group_resources)

    net._resolve, net._fill_scalar = counted_resolve, counted_fill
    return calls


def _simulate_bursts(capacities, flows, repeats, change, residue, knobs,
                     debug):
    """Per-flow completion times, plus how often the network re-solved
    and how often it ran the fill loop."""
    engine = Engine()
    net = FlowNetwork(engine, debug=debug, **knobs)
    resources = [
        net.add_resource(f"r{i}", capacity)
        for i, capacity in enumerate(capacities)
    ]
    calls = _count_fills(net)
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
    return completions, calls["resolve"], calls["fill"]


#: epoch 2 repeats the burst after a 0.1-weight hub flow has come and
#: gone (hub weight sum 0.1 + 8.2 - 0.1); a memo that skipped its
#: weight-sum check would replay epoch 0's rates and change completions
_RESIDUE_BURST = (
    [1.0, 1.0],
    [(0.0, 2048.0, None, {0: 0.2, 1: 1.0})]
    + [(0.0, 2048.0, None, {0: 1.0})] * 8,
    3, None, 2,
)
#: eight flows whose hub slows down before epoch 2; a memo that kept its
#: entries across the capacity change would replay the old rates
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
    slow, _, _ = _simulate_bursts(*schedule, SOLVERS["slowpath"], debug=True)
    fast, resolves, fills = _simulate_bursts(
        *schedule, SOLVERS["incremental"], debug=False
    )
    # exact float equality, per-flow completion times
    assert fast == slow
    # epoch 1 repeats epoch 0, so the memo served fills
    assert fills < resolves
    # debug mode runs the fill on every hit and checks the stored entry
    checked, _, _ = _simulate_bursts(
        *schedule, SOLVERS["incremental"], debug=True
    )
    assert checked == slow


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


def test_fill_memo_serves_torus_bcast_hits():
    """torus-shaddr re-solves the same component shapes chunk after chunk:
    the memo serves some of them, and the answer is the slowpath's."""
    def measure(knobs):
        machine = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
        # debug pinned off: a debug hit runs the fill as well
        machine.flownet.configure(debug=False, **knobs)
        calls = _count_fills(machine.flownet)
        result = run_collective(
            machine, "bcast", "torus-shaddr", 32768, iters=2,
            steady_state=False,
        )
        return result.elapsed_us, calls

    slow, slow_calls = measure(SOLVERS["slowpath"])
    fast, fast_calls = measure(SOLVERS["incremental"])
    assert fast == slow
    assert slow_calls["fill"] == slow_calls["resolve"]
    assert fast_calls["fill"] < fast_calls["resolve"]


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

