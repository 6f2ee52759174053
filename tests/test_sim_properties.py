"""Property-based tests of system-wide simulator invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, FlowNetwork
from repro.telemetry.recorder import TelemetryRecorder


workload = st.lists(
    st.tuples(
        st.floats(0.0, 50.0),        # start delay
        st.floats(1.0, 10_000.0),    # nbytes
        st.integers(0, 3),           # resource index
        st.sampled_from([1.0, 2.0, 3.0]),  # weight
        st.sampled_from([None, 25.0, 80.0]),  # cap
    ),
    min_size=1,
    max_size=20,
)


def run_workload(spec):
    eng = Engine()
    net = FlowNetwork(eng)
    resources = [net.add_resource(f"r{i}", 100.0) for i in range(4)]
    finish_times = {}

    def proc(i, delay, nbytes, res, weight, cap):
        if delay:
            yield eng.timeout(delay)
        yield net.transfer({resources[res]: weight}, nbytes, cap=cap,
                           name=f"f{i}")
        finish_times[i] = eng.now

    procs = [
        eng.spawn(proc(i, *args), name=f"p{i}")
        for i, args in enumerate(spec)
    ]
    eng.run_until_processes_finish(procs)
    return eng, net, resources, finish_times


class TestFlowNetworkInvariants:
    @given(spec=workload)
    @settings(max_examples=60, deadline=None)
    def test_byte_conservation(self, spec):
        """Every requested byte is eventually delivered, exactly once."""
        _eng, net, _res, _times = run_workload(spec)
        assert net.flows_completed == len(spec)
        assert net.bytes_completed == pytest.approx(
            sum(nbytes for _d, nbytes, _r, _w, _c in spec)
        )

    @given(spec=workload)
    @settings(max_examples=60, deadline=None)
    def test_busy_integral_equals_weighted_bytes(self, spec):
        """Each resource's busy integral equals the raw bytes routed
        through it (weight x payload), independent of scheduling."""
        eng, _net, resources, _times = run_workload(spec)
        expected = [0.0] * len(resources)
        for _d, nbytes, res, weight, _cap in spec:
            expected[res] += nbytes * weight
        for resource, exp in zip(resources, expected):
            assert resource.busy_integral(eng.now) == pytest.approx(
                exp, rel=1e-6, abs=1e-3
            )

    @given(spec=workload)
    @settings(max_examples=40, deadline=None)
    def test_finish_no_earlier_than_physics_allows(self, spec):
        """No flow beats its own best case: start + nbytes / min(cap, C/w)."""
        _eng, _net, _res, times = run_workload(spec)
        for i, (delay, nbytes, _res_i, weight, cap) in enumerate(spec):
            best_rate = min(100.0 / weight, cap or float("inf"))
            assert times[i] >= delay + nbytes / best_rate - 1e-6

    @given(spec=workload)
    @settings(max_examples=30, deadline=None)
    def test_determinism(self, spec):
        """Identical workloads give bit-identical schedules."""
        _e1, _n1, _r1, t1 = run_workload(spec)
        _e2, _n2, _r2, t2 = run_workload(spec)
        assert t1 == t2


class TestEngineTracing:
    def test_flow_events_traced(self):
        eng = Engine()
        eng.telemetry = recorder = TelemetryRecorder()
        net = FlowNetwork(eng)
        r = net.add_resource("r", 10.0)

        def p():
            yield net.transfer({r: 1.0}, 100.0, name="demo")

        proc = eng.spawn(p())
        eng.run_until_processes_finish([proc])
        assert [(start, end, name) for start, end, name, _row
                in recorder.flow_events] == [(0.0, 10.0, "demo")]
        assert recorder.open_flows == {}

    def test_tracing_off_by_default(self):
        eng = Engine()
        assert eng.telemetry is None
        net = FlowNetwork(eng)
        r = net.add_resource("r", 10.0)
        assert r.kind == "other"  # a bare network's resources

        def p():
            yield net.transfer({r: 1.0}, 10.0)

        proc = eng.spawn(p())
        eng.run_until_processes_finish([proc])
        assert eng.telemetry is None
