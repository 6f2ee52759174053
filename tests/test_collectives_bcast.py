"""Integration tests: every broadcast algorithm delivers correct payloads.

These run the full simulated stack — rectangle routes or tree operations,
DMA/core flows, FIFOs, counters, window mappings — and assert bit-exact
delivery at every rank.
"""

import pytest

from repro.bench import run_collective
from repro.collectives.registry import get_algorithm, select_protocol
from repro.hardware import Machine, Mode
from repro.telemetry.recorder import ROLE_PROTOCOL

QUAD_ALGOS = [
    "torus-direct-put",
    "torus-fifo",
    "torus-shaddr",
    "tree-dma-fifo",
    "tree-dma-direct-put",
    "tree-shmem",
    "tree-shaddr",
]
SMP_ALGOS = ["torus-direct-put-smp", "tree-smp"]


def machine_for(algorithm, dims=(2, 2, 1)):
    mode = Mode.SMP if algorithm in SMP_ALGOS else Mode.QUAD
    return Machine(torus_dims=dims, mode=mode)


class TestBcastCorrectness:
    @pytest.mark.parametrize("algorithm", QUAD_ALGOS + SMP_ALGOS)
    def test_payload_delivered_everywhere(self, algorithm):
        m = machine_for(algorithm)
        result = run_collective(
            m, "bcast", algorithm, 60_000, iters=1, verify=True
        )
        assert result.elapsed_us > 0

    @pytest.mark.parametrize("algorithm", QUAD_ALGOS + SMP_ALGOS)
    def test_odd_sizes(self, algorithm):
        # Not a multiple of chunk, slot, or color counts.
        m = machine_for(algorithm)
        run_collective(m, "bcast", algorithm, 70_001, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", QUAD_ALGOS + SMP_ALGOS)
    def test_tiny_message(self, algorithm):
        m = machine_for(algorithm)
        run_collective(m, "bcast", algorithm, 8, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", QUAD_ALGOS + SMP_ALGOS)
    def test_zero_bytes(self, algorithm):
        m = machine_for(algorithm)
        result = run_collective(m, "bcast", algorithm, 0, iters=1)
        assert result.elapsed_us >= 0

    @pytest.mark.parametrize("algorithm", ["torus-shaddr", "torus-fifo",
                                           "torus-direct-put"])
    def test_asymmetric_torus(self, algorithm):
        m = machine_for(algorithm, dims=(3, 2, 1))
        run_collective(m, "bcast", algorithm, 50_000, iters=1, verify=True)

    @pytest.mark.parametrize("algorithm", ["torus-shaddr", "torus-fifo"])
    def test_single_node(self, algorithm):
        # Pure intra-node broadcast (all phases degenerate).
        m = machine_for(algorithm, dims=(1, 1, 1))
        run_collective(m, "bcast", algorithm, 30_000, iters=1, verify=True)

    @pytest.mark.parametrize(
        "algorithm",
        ["torus-direct-put", "torus-fifo", "torus-shaddr", "tree-shaddr"],
    )
    def test_nonzero_root(self, algorithm):
        # Roots on another node: local rank 0 (the torus algorithms
        # designate the root process as that node's master), and local
        # rank 1, whose node's local rank 0 must still get the payload
        # (tree-shaddr counts its roles from the root's local rank).
        for root in (4, 5):
            m = machine_for(algorithm, dims=(2, 2, 1))
            run_collective(
                m, "bcast", algorithm, 40_000, root=root, iters=1,
                verify=True,
            )

    def test_tree_shaddr_root_off_local_zero(self):
        """The root's local rank injects, on every node: a root at local
        rank 1 delivers everywhere, in the time of root 0."""
        times = [
            run_collective(
                Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD), "bcast",
                "tree-shaddr", 40_000, root=root, iters=2, verify=True,
            ).iterations_us
            for root in (0, 1)
        ]
        assert times[1] == times[0]

    def test_multiple_iterations_all_verified(self):
        m = machine_for("torus-shaddr")
        result = run_collective(
            m, "bcast", "torus-shaddr", 30_000, iters=3, verify=True
        )
        assert len(result.iterations_us) == 3
        # Later iterations benefit from cached window mappings.
        assert result.iterations_us[1] <= result.iterations_us[0]

    def test_dual_mode_supported_where_applicable(self):
        m = Machine(torus_dims=(2, 2, 1), mode=Mode.DUAL)
        for algorithm in ["torus-direct-put", "torus-fifo", "torus-shaddr",
                          "tree-dma-fifo", "tree-shmem"]:
            run_collective(m := Machine(torus_dims=(2, 2, 1), mode=Mode.DUAL),
                           "bcast", algorithm, 20_000, iters=1, verify=True)


class TestBcastFifoBackpressure:
    """Torus + FIFO's full-FIFO path (section IV-B): the master waits for
    the last reader to retire a slot before it reuses it."""

    def test_full_fifo_stalls_master_and_delivers(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        recorder = m.attach_telemetry()
        # verify=True asserts bit-exact delivery at every rank.
        run_collective(m, "bcast", "torus-fifo", 1 << 20, verify=True)
        slot_stalls = [
            (rank, node)
            for _start, _end, rank, node, kind in recorder.stall_events
            if kind == "waiting-on-slot"
        ]
        assert slot_stalls
        assert all(recorder.roles[rank] == ROLE_PROTOCOL
                   for rank, _node in slot_stalls)
        params = m.params
        capacity = (params.fifo_slots * params.fifo_slot_bytes
                    // params.pipeline_width)
        occupancy = [
            depth
            for _ts, _name, _node, kind, _seq, depth in recorder.fifo_events
            if kind == "depth"
        ]
        assert occupancy and max(occupancy) <= capacity


class TestBcastModeGuards:
    def test_smp_algorithms_reject_quad_machine(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        for algorithm in SMP_ALGOS:
            with pytest.raises(ValueError):
                run_collective(m, "bcast", algorithm, 1024, iters=1)

    def test_tree_shaddr_requires_quad(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.DUAL)
        with pytest.raises(ValueError):
            run_collective(m, "bcast", "tree-shaddr", 1024, iters=1)

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            get_algorithm("bcast", "nope")


class TestBcastPerformanceShape:
    """Coarse ordering invariants the model must always satisfy."""

    def test_quad_direct_put_slower_than_smp(self):
        smp = run_collective(
            Machine(torus_dims=(2, 2, 2), mode=Mode.SMP),
            "bcast", "torus-direct-put-smp", 512 * 1024,
        )
        quad = run_collective(
            Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD),
            "bcast", "torus-direct-put", 512 * 1024,
        )
        assert quad.bandwidth_mbs < smp.bandwidth_mbs

    def test_shaddr_beats_fifo_beats_direct_put(self):
        results = {}
        for algorithm in ["torus-direct-put", "torus-fifo", "torus-shaddr"]:
            m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
            results[algorithm] = run_collective(
                m, "bcast", algorithm, 1024 * 1024
            ).bandwidth_mbs
        assert (
            results["torus-shaddr"]
            > results["torus-fifo"]
            > results["torus-direct-put"]
        )

    def test_tree_shaddr_beats_dma_variants_medium(self):
        results = {}
        for algorithm in ["tree-shaddr", "tree-dma-fifo",
                          "tree-dma-direct-put"]:
            m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
            results[algorithm] = run_collective(
                m, "bcast", algorithm, 128 * 1024
            ).bandwidth_mbs
        assert results["tree-shaddr"] > results["tree-dma-fifo"]
        assert results["tree-shaddr"] > results["tree-dma-direct-put"]

    def test_shmem_latency_close_to_smp(self):
        smp = run_collective(
            Machine(torus_dims=(2, 2, 2), mode=Mode.SMP),
            "bcast", "tree-smp", 16,
        )
        shmem = run_collective(
            Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD),
            "bcast", "tree-shmem", 16,
        )
        fifo = run_collective(
            Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD),
            "bcast", "tree-dma-fifo", 16,
        )
        overhead = shmem.elapsed_us - smp.elapsed_us
        assert 0 < overhead < 1.0  # sub-microsecond (paper: 0.42 us)
        assert fifo.elapsed_us > shmem.elapsed_us

    def test_window_caching_helps_shaddr(self):
        cached = run_collective(
            Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD),
            "bcast", "torus-shaddr", 128 * 1024, iters=4, window_caching=True,
        )
        uncached = run_collective(
            Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD),
            "bcast", "torus-shaddr", 128 * 1024, iters=4,
            window_caching=False,
        )
        assert uncached.elapsed_us > cached.elapsed_us


class TestSelection:
    def test_short_messages_use_shmem_tree(self):
        assert select_protocol("bcast", 256, 4) == "tree-shmem"

    def test_medium_messages_use_shaddr_tree(self):
        assert select_protocol("bcast", 128 * 1024, 4) == "tree-shaddr"

    def test_large_messages_use_torus(self):
        assert select_protocol("bcast", 2 * 1024 * 1024, 4) == "torus-shaddr"

    def test_smp_mode_uses_hardware_protocols(self):
        assert select_protocol("bcast", 1024, 1) == "tree-smp"
        assert select_protocol("bcast", 4 * 1024 * 1024, 1) == "torus-direct-put-smp"
