"""Failure-injection tests: degraded hardware must slow, never corrupt.

A machine degraded for a whole run is one with fault windows that start
at 0 and never clear (``duration=None``); a cut to the DMA alone, which
no fault kind models, scales the engine's flow resource directly.
"""

import numpy as np
import pytest

from repro.bench import run_collective
from repro.bench.harness import FAMILY_SPECS
from repro.collectives.registry import iter_algorithms
from repro.hardware import Machine, Mode
from repro.hardware.fault_schedule import (
    CounterStall,
    FaultSchedule,
    LinkFlap,
    NodeSlowdown,
    RetryPolicy,
    TreePortFlap,
    WindowFault,
)


def degraded(machine, *faults):
    """``machine`` with ``faults`` installed; each window opens when the
    next run starts."""
    FaultSchedule(list(faults)).install(machine)
    return machine


def cut_dma(machine, node, factor):
    """Scale one node's DMA budget by ``factor`` for the machine's life."""
    dma = machine.nodes[node].dma
    dma.set_capacity(dma.capacity * factor)


class TestDegradedDma:
    def test_correct_and_slower(self):
        healthy = run_collective(
            Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD),
            "bcast", "torus-direct-put", 256 * 1024,
        )
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        cut_dma(m, node=2, factor=0.25)
        degraded_run = run_collective(
            m, "bcast", "torus-direct-put", 256 * 1024, verify=True
        )
        assert degraded_run.elapsed_us > healthy.elapsed_us

    def test_shaddr_less_sensitive_to_dma_loss(self):
        """The shared-address scheme barely uses the DMA intra-node, so a
        degraded engine hurts it less than the baseline."""
        def slowdown(algorithm):
            healthy = run_collective(
                Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD),
                "bcast", algorithm, 512 * 1024,
            ).elapsed_us
            m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
            for node in range(m.nnodes):
                cut_dma(m, node, factor=0.5)
            degraded_us = run_collective(
                m, "bcast", algorithm, 512 * 1024
            ).elapsed_us
            return degraded_us / healthy

        assert slowdown("torus-shaddr") < slowdown("torus-direct-put")


class TestStragglerBackpressure:
    def test_one_slow_drain_port_slows_the_whole_tree(self):
        healthy = run_collective(
            Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD),
            "bcast", "tree-shaddr", 512 * 1024,
        )
        m = degraded(
            Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD),
            TreePortFlap(node=3, factor=0.3, direction="down"),
        )
        degraded_run = run_collective(
            m, "bcast", "tree-shaddr", 512 * 1024, verify=True
        )
        # Not just node 3: the window backpressures everyone.
        assert degraded_run.elapsed_us > 1.5 * healthy.elapsed_us

    def test_degraded_up_port_slows_injection(self):
        m = degraded(
            Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD),
            TreePortFlap(node=1, factor=0.3, direction="up"),
        )
        degraded_run = run_collective(
            m, "bcast", "tree-shaddr", 512 * 1024, verify=True
        )
        healthy = run_collective(
            Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD),
            "bcast", "tree-shaddr", 512 * 1024,
        )
        assert degraded_run.elapsed_us > healthy.elapsed_us


class TestDegradedLinks:
    def test_degrading_channels_after_first_run_slows_second(self):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        first = run_collective(m, "bcast", "torus-shaddr", 512 * 1024)
        degraded(m, LinkFlap(node=0, factor=0.4))
        second = run_collective(
            m, "bcast", "torus-shaddr", 512 * 1024, verify=True
        )
        assert second.elapsed_us > first.elapsed_us


class JitterInjector:
    """OS-noise model: random extra delays charged to ranks' cores.

    Every :meth:`delay` draws a non-negative delay (exponential, mean
    ``mean_us``) from a seeded generator, so runs stay reproducible.
    """

    def __init__(self, machine: Machine, mean_us: float, seed: int = 99):
        if mean_us < 0:
            raise ValueError(f"mean_us must be >= 0, got {mean_us}")
        self.machine = machine
        self.mean_us = mean_us
        self._rng = np.random.default_rng(seed)

    def delay(self):
        """Sub-generator: one noise event on the calling core."""
        if self.mean_us > 0:
            yield self.machine.engine.timeout(
                float(self._rng.exponential(self.mean_us))
            )
        else:
            yield self.machine.engine.timeout(0.0)


#: the natural size argument each family runs the jitter test at
JITTER_SIZES = {"bcast": 40_000, "allreduce": 2048, "reduce": 2048,
                "allgather": 1024, "alltoall": 512, "gather": 1024,
                "scatter": 1024}


class TestJitter:
    @pytest.mark.parametrize("info", [
        pytest.param(info, id=info.name)
        for info in iter_algorithms() if info.data_carrying
    ])
    def test_jitter_verifies_and_repeats(self, info):
        """Seeded noise on every rank's entry and exit: the run still
        verifies bit-exact, and it repeats exactly under the same seed."""
        spec = FAMILY_SPECS[info.family]
        x = JITTER_SIZES[info.family]

        def run_with_jitter(seed):
            m = Machine(torus_dims=(2, 2, 1), mode=Mode(max(info.modes)))
            m.set_working_set(spec.working_set(m, x))
            payload = spec.payload(m, x, np.random.default_rng(1))
            inv = spec.build(info.cls, m, x, payload, 0, True)
            jitter = JitterInjector(m, mean_us=5.0, seed=seed)
            barrier = m.make_barrier()

            def rank_loop(rank):
                yield barrier.wait()
                yield from jitter.delay()
                yield from inv.proc(rank)
                yield from jitter.delay()

            procs = [
                m.spawn(rank_loop(r), name=f"r{r}")
                for r in range(m.nprocs)
            ]
            m.engine.run_until_processes_finish(procs)
            inv.verify()
            return m.engine.now

        t1 = run_with_jitter(seed=7)
        t2 = run_with_jitter(seed=7)
        t3 = run_with_jitter(seed=8)
        assert t1 == t2  # seeded -> reproducible
        assert t3 != t1  # different noise, different schedule

    def test_zero_mean_jitter_is_noop_delay(self):
        m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
        jitter = JitterInjector(m, mean_us=0.0)

        def p():
            yield from jitter.delay()

        proc = m.spawn(p())
        m.engine.run_until_processes_finish([proc])
        assert m.engine.now == 0.0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            JitterInjector(Machine(torus_dims=(1, 1, 1)), mean_us=-1.0)


class TestValidation:
    def test_bad_factor_rejected(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        for bad in (0.0, -0.5, 1.5):
            for fault in (NodeSlowdown(node=0, factor=bad),
                          LinkFlap(node=0, factor=bad),
                          TreePortFlap(node=0, factor=bad)):
                with pytest.raises(ValueError):
                    FaultSchedule([fault]).install(m)


class TestInjectorPersistence:
    """Injected capacity scalings must survive set_working_set."""

    def test_memory_degradation_survives_regime_reinstall(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        m.set_working_set(64 * 1024)
        baseline = m.nodes[1].mem.capacity
        degraded(m, NodeSlowdown(node=1, factor=0.5))
        m.engine.run()  # opens the window, which never clears
        assert m.nodes[1].mem.capacity == pytest.approx(0.5 * baseline)
        # Regime reinstall used to silently reset the capacity; the
        # reapply hook must re-scale it.
        m.set_working_set(64 * 1024)
        assert m.nodes[1].mem.capacity == pytest.approx(0.5 * baseline)
        # Untouched nodes are reinstalled clean.
        assert m.nodes[0].mem.capacity == pytest.approx(baseline)

    def test_removed_hook_stops_reapplying(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        calls = []
        hook = lambda: calls.append(1)  # noqa: E731
        m.add_reapply_hook(hook)
        m.set_working_set(1024)
        m.remove_reapply_hook(hook)
        m.set_working_set(1024)
        assert len(calls) == 1


class TestTorusChannelApi:
    """Public channel enumeration (no reaching into torus._channels)."""

    def test_channels_touching_matches_iteration(self):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        # Lazily creates the channels.
        run_collective(m, "bcast", "torus-shaddr", 64 * 1024)
        assert len(list(m.torus.iter_channels())) > 0
        touched = m.torus.channels_touching(0)
        assert touched
        expected = [
            ch for key, ch in m.torus.iter_channels()
            if m.torus.channel_touches(key, 0)
        ]
        assert touched == expected

    def test_channel_hook_sees_lazy_creation(self):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        created = []
        m.torus.add_channel_hook(lambda key, ch: created.append(key))
        run_collective(m, "bcast", "torus-shaddr", 64 * 1024)
        assert created  # channels are created lazily, during the run
        m.torus.remove_channel_hook(created.append)  # absent hook: no-op


class TestFaultSchedule:
    def test_windowed_link_flap_slows_then_fully_recovers(self):
        def measure(schedule):
            m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
            if schedule is not None:
                schedule.install(m)
            return run_collective(
                m, "bcast", "torus-shaddr", 512 * 1024, verify=True
            ).elapsed_us, m

        healthy, _ = measure(None)
        flap = FaultSchedule(
            [LinkFlap(start=0.0, duration=400.0, node=0, factor=0.3)]
        )
        flapped, m = measure(flap)
        assert flapped > healthy
        # After the window closed every channel is back at full capacity:
        # an identical second run on the same machine matches healthy.
        again = run_collective(m, "bcast", "torus-shaddr", 512 * 1024)
        assert again.elapsed_us == pytest.approx(healthy, rel=1e-6)

    def test_expired_window_is_skipped_on_install(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        schedule = FaultSchedule(
            [NodeSlowdown(start=0.0, duration=50.0, node=0, factor=0.5)]
        )
        assert schedule.install(m, at=100.0) == 0

    def test_slowdown_and_treeport_apply_and_revert(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        mem0 = m.nodes[0].mem.capacity
        tree0 = m.nodes[1].tree_down.capacity
        FaultSchedule([
            NodeSlowdown(start=10.0, duration=20.0, node=0, factor=0.5),
            TreePortFlap(start=10.0, duration=20.0, node=1, factor=0.25),
        ]).install(m)
        m.engine.run(until=15.0)
        assert m.nodes[0].mem.capacity == pytest.approx(0.5 * mem0)
        assert m.nodes[1].tree_down.capacity == pytest.approx(0.25 * tree0)
        m.engine.run(until=40.0)
        assert m.nodes[0].mem.capacity == pytest.approx(mem0)
        assert m.nodes[1].tree_down.capacity == pytest.approx(tree0)

    def test_fault_windows_land_in_the_trace(self):
        from repro.telemetry.trace import simulation_trace

        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        recorder = m.attach_telemetry()
        FaultSchedule([
            NodeSlowdown(start=5.0, duration=10.0, node=0, factor=0.5),
            CounterStall(start=0.0, duration=8.0, node=None),
            CounterStall(start=20.0, duration=None, node=1),
        ]).install(m)
        m.engine.run()
        events = [
            e for e in simulation_trace(recorder)["traceEvents"]
            if e.get("ph") == "X" and e["name"].startswith("fault.")
        ]
        spans = {e["name"]: (e["ts"], e["dur"]) for e in events}
        assert spans == {
            "fault.slowdown.n0": (5.0, 10.0),
            "fault.ctrstall.all": (0.0, 8.0),
            # A window with no end is still open when the trace is taken.
            "fault.ctrstall.n1": (20.0, 0.0),
        }
        assert [e["name"] for e in events if e["args"].get("incomplete")] \
            == ["fault.ctrstall.n1"]
        # Fault events live on their own trace row.
        assert all(e["tid"] == 1 for e in events)

    def test_window_fault_query_scoping(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        FaultSchedule([
            WindowFault(start=0.0, duration=10.0, node=1, slots_available=2),
        ]).install(m)
        assert m.faults.window_slot_cap(1) == 2
        assert m.faults.window_slot_cap(0) is None
        assert m.faults.window_slot_cap(None) == 2  # unscoped caller
        m.engine.run(until=20.0)
        assert m.faults.window_slot_cap(1) is None  # window over

    def test_counter_stall_defers_wakeups_not_reads(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        FaultSchedule([
            CounterStall(start=0.0, duration=50.0, node=0),
        ]).install(m)
        counter = m.make_counter(name="c", node=0)
        counter.add(1.0)  # published before any watcher: value readable
        woken_at = []

        def watcher():
            yield counter.wait_for(2.0)
            woken_at.append(m.engine.now)

        def already_met():
            # Threshold already met: fires immediately despite the stall.
            yield counter.wait_for(1.0)
            woken_at.append(("immediate", m.engine.now))

        m.spawn(watcher())
        m.spawn(already_met())
        m.engine.call_at(10.0, lambda _v: counter.add(1.0), None)
        m.engine.run()
        assert ("immediate", 0.0) in woken_at
        # The publish at t=10 is deferred to the stall window's end (t=50).
        assert woken_at[-1] == 50.0

    def test_retry_policy_backoff(self):
        policy = RetryPolicy(
            max_attempts=4, base_backoff_us=8.0, backoff_factor=2.0,
            max_backoff_us=20.0,
        )
        assert policy.backoff_us(1) == 8.0
        assert policy.backoff_us(2) == 16.0
        assert policy.backoff_us(3) == 20.0  # capped
        with pytest.raises(ValueError):
            policy.backoff_us(0)
