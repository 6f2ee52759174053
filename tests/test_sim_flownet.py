"""Unit and property tests for the max-min fair flow network."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, FlowNetwork, SimulationError


def run_transfers(specs):
    """specs: list of (nbytes, cap, usage_spec) where usage_spec maps
    resource-name -> weight; resources are created with given capacities.

    Returns (completion_times, rates_probe).
    """
    eng = Engine()
    net = FlowNetwork(eng)
    resources = {}
    done = {}

    def ensure(name, capacity):
        if name not in resources:
            resources[name] = net.add_resource(name, capacity)
        return resources[name]

    def proc(i, nbytes, cap, usage):
        yield net.transfer(usage, nbytes, cap=cap, name=f"f{i}")
        done[i] = eng.now

    for i, (nbytes, cap, usage_spec) in enumerate(specs):
        usage = {
            ensure(name, capacity): weight
            for (name, capacity), weight in usage_spec.items()
        }
        eng.spawn(proc(i, nbytes, cap, usage))
    eng.run()
    return done


class TestFlowNetworkBasics:
    def test_single_flow_resource_bound(self):
        done = run_transfers([(1000.0, None, {("r", 100.0): 1.0})])
        assert done[0] == pytest.approx(10.0)

    def test_single_flow_cap_bound(self):
        done = run_transfers([(1000.0, 50.0, {("r", 100.0): 1.0})])
        assert done[0] == pytest.approx(20.0)

    def test_weight_two_halves_rate(self):
        # Copy semantics: weight 2 on a 100-capacity resource -> rate 50.
        done = run_transfers([(1000.0, None, {("mem", 100.0): 2.0})])
        assert done[0] == pytest.approx(20.0)

    def test_equal_sharing(self):
        done = run_transfers(
            [
                (500.0, None, {("r", 100.0): 1.0}),
                (500.0, None, {("r", 100.0): 1.0}),
            ]
        )
        assert done[0] == pytest.approx(10.0)
        assert done[1] == pytest.approx(10.0)

    def test_capped_flow_leaves_surplus_to_other(self):
        # Flow0 capped at 20, flow1 takes the remaining 80.
        done = run_transfers(
            [
                (200.0, 20.0, {("r", 100.0): 1.0}),
                (800.0, None, {("r", 100.0): 1.0}),
            ]
        )
        assert done[0] == pytest.approx(10.0)
        assert done[1] == pytest.approx(10.0)

    def test_multi_resource_bottleneck(self):
        # Flow uses r1 (cap 100) and r2 (cap 30): r2 binds.
        done = run_transfers(
            [(300.0, None, {("r1", 100.0): 1.0, ("r2", 30.0): 1.0})]
        )
        assert done[0] == pytest.approx(10.0)

    def test_departure_releases_capacity(self):
        done = run_transfers(
            [
                (250.0, None, {("r", 100.0): 1.0}),
                (1000.0, None, {("r", 100.0): 1.0}),
            ]
        )
        # Share 50/50 until t=5 (flow0 done), then flow1 at 100:
        # flow1: 250 by t=5, 750 left at 100 -> t=12.5.
        assert done[0] == pytest.approx(5.0)
        assert done[1] == pytest.approx(12.5)

    def test_zero_byte_completes_immediately(self):
        done = run_transfers([(0.0, None, {("r", 10.0): 1.0})])
        assert done[0] == 0.0

    def test_unconstrained_flow_rejected(self):
        eng = Engine()
        net = FlowNetwork(eng)
        with pytest.raises(SimulationError):
            net.transfer({}, 100.0)

    def test_negative_bytes_rejected(self):
        eng = Engine()
        net = FlowNetwork(eng)
        r = net.add_resource("r", 10.0)
        with pytest.raises(ValueError):
            net.transfer({r: 1.0}, -5.0)

    def test_non_positive_weight_rejected(self):
        eng = Engine()
        net = FlowNetwork(eng)
        r = net.add_resource("r", 10.0)
        with pytest.raises(ValueError):
            net.transfer({r: 0.0}, 5.0)

    def test_capacity_reconfiguration(self):
        eng = Engine()
        net = FlowNetwork(eng)
        r = net.add_resource("r", 100.0)
        done = {}

        def p():
            yield net.transfer({r: 1.0}, 1000.0)
            done["t"] = eng.now

        def reconf():
            yield eng.timeout(5.0)
            r.set_capacity(50.0)

        eng.spawn(p())
        eng.spawn(reconf())
        eng.run()
        # 500 bytes at 100, remaining 500 at 50 -> 5 + 10 = 15.
        assert done["t"] == pytest.approx(15.0)

    def test_completion_accounting(self):
        eng = Engine()
        net = FlowNetwork(eng)
        r = net.add_resource("r", 10.0)

        def p():
            yield net.transfer({r: 1.0}, 70.0)
            yield net.transfer({r: 1.0}, 30.0)

        eng.spawn(p())
        eng.run()
        assert net.bytes_completed == pytest.approx(100.0)
        assert net.flows_completed == 2

    def test_independent_components_do_not_interact(self):
        done = run_transfers(
            [
                (100.0, None, {("a", 10.0): 1.0}),
                (100.0, None, {("b", 100.0): 1.0}),
            ]
        )
        assert done[0] == pytest.approx(10.0)
        assert done[1] == pytest.approx(1.0)


class TestMaxMinProperties:
    """Property-based checks of the allocation's defining invariants."""

    @staticmethod
    def _snapshot_rates(nflows, nres, weights, caps, capacities):
        """Start all flows at t=0, run to just after 0, inspect rates."""
        eng = Engine()
        net = FlowNetwork(eng)
        resources = [
            net.add_resource(f"r{j}", capacities[j]) for j in range(nres)
        ]
        flows = []
        for i in range(nflows):
            usage = {
                resources[j]: weights[i][j]
                for j in range(nres)
                if weights[i][j] > 0
            }
            if not usage:
                usage = {resources[0]: 1.0}
            flows.append(
                net.transfer(usage, 1e9, cap=caps[i], name=f"f{i}")
            )
        return flows, resources

    @given(
        nflows=st.integers(1, 6),
        nres=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_feasible_and_pareto(self, nflows, nres, data):
        weights = [
            [
                data.draw(st.sampled_from([0.0, 1.0, 2.0, 3.0]))
                for _ in range(nres)
            ]
            for _ in range(nflows)
        ]
        caps = [
            data.draw(st.sampled_from([5.0, 20.0, 100.0, None]))
            for _ in range(nflows)
        ]
        capacities = [
            data.draw(st.sampled_from([10.0, 50.0, 200.0]))
            for _ in range(nres)
        ]
        flows, resources = self._snapshot_rates(
            nflows, nres, weights, caps, capacities
        )
        # Feasibility: no resource over capacity; no flow over its cap.
        for r in resources:
            assert r.load <= r.capacity + 1e-6
        for i, f in enumerate(flows):
            if caps[i] is not None:
                assert f.rate <= caps[i] + 1e-6
            assert f.rate > 0
        # Pareto/max-min: every flow is blocked by either its cap or a
        # saturated resource it uses.
        for i, f in enumerate(flows):
            capped = caps[i] is not None and f.rate >= caps[i] - 1e-6
            saturated = any(
                r.load >= r.capacity - 1e-6 for r in f.usage
            )
            assert capped or saturated, f"flow {i} could still grow"

    @given(n=st.integers(2, 8))
    @settings(max_examples=20, deadline=None)
    def test_symmetric_flows_get_equal_rates(self, n):
        eng = Engine()
        net = FlowNetwork(eng)
        r = net.add_resource("r", 100.0)
        flows = [net.transfer({r: 1.0}, 1e9, name=f"f{i}") for i in range(n)]
        rates = {f.rate for f in flows}
        assert len(rates) == 1
        assert flows[0].rate == pytest.approx(100.0 / n)
