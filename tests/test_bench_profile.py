"""Tests for resource-utilization profiling — including the paper's central
bottleneck claims, asserted directly from utilization counters."""

import pytest

from repro.bench import run_collective, utilization_report
from repro.bench.profile import format_report
from repro.bench.traffic import MachineView
from repro.collectives.allreduce.ring import protocol_cores
from repro.hardware import Machine, Mode
from repro.sim import Engine, FlowNetwork


class TestBusyIntegrals:
    def test_single_flow_integral(self):
        eng = Engine()
        net = FlowNetwork(eng)
        r = net.add_resource("r", 100.0)

        def p():
            yield net.transfer({r: 1.0}, 500.0)  # 5 us at 100 B/us
            yield eng.timeout(5.0)  # idle tail

        proc = eng.spawn(p())
        eng.run_until_processes_finish([proc])
        assert r.busy_integral(eng.now) == pytest.approx(500.0)
        assert r.utilization(eng.now) == pytest.approx(0.5)

    def test_weighted_flow_counts_weighted_bytes(self):
        eng = Engine()
        net = FlowNetwork(eng)
        r = net.add_resource("r", 100.0)

        def p():
            yield net.transfer({r: 2.0}, 300.0)

        proc = eng.spawn(p())
        eng.run_until_processes_finish([proc])
        assert r.busy_integral(eng.now) == pytest.approx(600.0)

    def test_utilization_zero_window(self):
        eng = Engine()
        net = FlowNetwork(eng)
        r = net.add_resource("r", 10.0)
        assert r.utilization(0.0) == 0.0

    def test_overlapping_flows_integrate_total_load(self):
        eng = Engine()
        net = FlowNetwork(eng)
        r = net.add_resource("r", 100.0)

        def p(nbytes):
            yield net.transfer({r: 1.0}, nbytes)

        procs = [eng.spawn(p(250.0)), eng.spawn(p(750.0))]
        eng.run_until_processes_finish(procs)
        # All 1000 bytes pass through r regardless of sharing pattern.
        assert r.busy_integral(eng.now) == pytest.approx(1000.0)


class TestMachineReports:
    def test_report_groups_present(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        run_collective(m, "bcast", "torus-shaddr", 64 * 1024)
        report = utilization_report(m)
        for group in ("mem", "dma", "tree_up", "tree_down", "links"):
            assert group in report.groups
        assert report.group("dma").count == m.nnodes

    def test_unknown_group_raises(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        run_collective(m, "bcast", "torus-shaddr", 1024)
        with pytest.raises(KeyError):
            utilization_report(m).group("gpu")

    def test_format_report_renders(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        run_collective(m, "bcast", "torus-shaddr", 64 * 1024)
        text = format_report(utilization_report(m))
        assert "dma" in text and "%" in text


class TestPaperBottleneckClaims:
    """Section V-A-1's contention story, read off the utilization counters."""

    def _profile(self, algorithm, mode=Mode.QUAD):
        m = Machine(torus_dims=(2, 2, 2), mode=mode)
        run_collective(m, "bcast", algorithm, 1024 * 1024)
        return utilization_report(m)

    def test_direct_put_is_dma_bound(self):
        """'The DMA cannot keep pace with both the inter- and intra-node
        data transfers': the baseline saturates the engine."""
        report = self._profile("torus-direct-put")
        assert report.group("dma").peak > 0.8
        # ...while the wires sit mostly idle.
        assert report.group("links").mean < 0.3

    def test_shaddr_relieves_the_dma(self):
        """The shared-address scheme moves intra-node bytes onto cores."""
        baseline = self._profile("torus-direct-put")
        shaddr = self._profile("torus-shaddr")
        assert shaddr.group("dma").peak < baseline.group("dma").peak
        # The network is driven harder: link utilization rises.
        assert shaddr.group("links").mean > baseline.group("links").mean

    def test_tree_algorithms_leave_torus_idle(self):
        report = self._profile("tree-shaddr")
        # Torus channels are created lazily: a pure tree algorithm never
        # instantiates them at all.
        links = report.groups.get("links")
        assert links is None or links.mean == pytest.approx(0.0)
        assert report.group("tree_down").mean > 0.0

    def test_tree_bcast_report_serves_payload_bytes(self):
        """The tree-bcast path: downtree wire and memory both carry at
        least one copy of the payload on every node."""
        nbytes = 512 * 1024
        m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
        run_collective(m, "bcast", "tree-shaddr", nbytes)
        report = utilization_report(m)
        assert report.group("tree_down").bytes_served >= nbytes
        assert report.group("mem").bytes_served >= nbytes * m.nnodes
        assert 0.0 < report.group("tree_down").mean <= 1.0

    def test_profile_identical_with_telemetry_attached(self):
        """Telemetry is observational: the utilization profile of a
        recorded run matches the seed run exactly, group by group."""
        def profile(attach):
            m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
            if attach:
                m.attach_telemetry()
            run_collective(m, "bcast", "tree-shaddr", 256 * 1024)
            return utilization_report(m)

        bare, recorded = profile(False), profile(True)
        assert set(bare.groups) == set(recorded.groups)
        for name, group in bare.groups.items():
            other = recorded.groups[name]
            assert group.bytes_served == other.bytes_served, name
            assert group.mean == other.mean, name
            assert group.peak == other.peak, name


class TestSwitchedFabricProfiles:
    """Resources carry their kind, so a fabric's channels group as links
    whatever their names."""

    @pytest.mark.parametrize("network", ["fattree", "leafspine"])
    def test_fabric_channels_report_as_links(self, network):
        m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD, network=network)
        run_collective(m, "bcast", "ring-pipelined", 64 * 1024)
        report = utilization_report(m)
        assert "other" not in report.groups
        links = report.group("links")
        assert links.count == sum(1 for _ in m.network.iter_channels())
        assert links.bytes_served > 0


class TestMultiIterationProfiles:
    """Busy integrals survive the harness's per-iteration clock rebase,
    so the window covers every iteration, not only the last one."""

    @staticmethod
    def _links_mean(iters):
        m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
        run_collective(m, "bcast", "torus-shaddr", 64 * 1024, iters=iters)
        return utilization_report(m).group("links").mean

    def test_links_mean_does_not_grow_with_iterations(self):
        one = self._links_mean(1)
        for iters in (2, 4):
            assert self._links_mean(iters) == pytest.approx(one, abs=0.005)

    def test_no_group_reads_above_full_on_a_fabric(self):
        m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD, network="fattree")
        run_collective(m, "allgather", "allgather-ring-shaddr", 4096,
                       iters=2)
        report = utilization_report(m)
        assert report.window_us == m.rebased_us + m.engine.now
        assert m.rebased_us > 0
        for group in report.groups.values():
            assert group.peak <= 1.0, group


class TestAllreduceProfiles:
    """Table I's contention story on the allreduce path."""

    def _profile(self, algorithm, count=96 * 1024):
        m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
        run_collective(m, "allreduce", algorithm, count)
        return m, utilization_report(m)

    def test_current_allreduce_report_groups(self):
        m, report = self._profile("allreduce-torus-current")
        for group in ("mem", "dma", "links"):
            assert group in report.groups
        assert report.group("dma").count == m.nnodes
        assert report.group("dma").bytes_served > 0

    def test_shaddr_allreduce_offloads_the_dma(self):
        """'No extra copy operations are necessary': the shared-address
        scheme strips the DMA of the baseline's redundant local copies."""
        _, current = self._profile("allreduce-torus-current")
        _, shaddr = self._profile("allreduce-torus-shaddr")
        assert (shaddr.group("dma").bytes_served
                < current.group("dma").bytes_served)
        # The cores take over that work: memory traffic stays real.
        assert shaddr.group("mem").bytes_served > 0

    def test_allreduce_report_renders(self):
        _, report = self._profile("allreduce-torus-shaddr")
        text = format_report(report)
        assert "dma" in text and "%" in text

    @pytest.mark.parametrize("steady_state", [None, False])
    def test_protocol_cores_live_as_long_as_the_machine(self, steady_state):
        """One protocol-core set per machine and algorithm, named from the
        registry: iterations used to add a fresh set each (16 cores after
        ``iters=4`` on 8 nodes, 32 with the steady-state stop off), named
        by the invocation's ``id()``."""
        m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
        run_collective(m, "allreduce", "allreduce-torus-current", 8192,
                       iters=4, steady_state=steady_state)
        cores = [r.name for r in m.flownet.resources if r.kind == "proto_core"]
        assert cores == [f"n{n}.proto.allreduce-torus-current"
                         for n in range(m.nnodes)]
        assert utilization_report(m).group("proto_core").count == m.nnodes

    def test_each_traffic_view_keeps_its_own_protocol_cores(self):
        """A traffic job's view is its own machine object: co-tenants on
        one flow network never share protocol cores, and a view's set is
        reused by its next invocation."""
        parent = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
        left, right = MachineView(parent, 0, 4), MachineView(parent, 4, 4)
        name = "allreduce-ring-pipelined"
        mine = protocol_cores(left, name)
        assert protocol_cores(left, name) is mine
        theirs = protocol_cores(right, name)
        whole = protocol_cores(parent, name)
        assert (len(mine), len(theirs), len(whole)) == (4, 4, 8)
        ids = [{id(core) for core in cores} for cores in (mine, theirs, whole)]
        assert len(ids[0] | ids[1] | ids[2]) == 16
