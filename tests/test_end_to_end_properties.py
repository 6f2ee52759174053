"""Property-based end-to-end checks: random machines, roots, and sizes."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import run_collective
from repro.hardware import Machine, Mode

small_dims = st.sampled_from([(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1)])
sizes = st.sampled_from([1, 17, 999, 8192, 40_000])


class TestBcastEndToEnd:
    @given(dims=small_dims, nbytes=sizes, data=st.data())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_shaddr_delivers_any_configuration(self, dims, nbytes, data):
        machine = Machine(torus_dims=dims, mode=Mode.QUAD)
        # Torus algorithms designate the root process as its node's master.
        root_node = data.draw(st.integers(0, machine.nnodes - 1))
        root = machine.node_ranks(root_node)[0]
        run_collective(
            machine, "bcast", "torus-shaddr", nbytes, root=root, iters=1,
            verify=True
        )

    @given(dims=small_dims, nbytes=sizes)
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fifo_delivers_any_configuration(self, dims, nbytes):
        machine = Machine(torus_dims=dims, mode=Mode.QUAD)
        run_collective(
            machine, "bcast", "torus-fifo", nbytes, iters=1, verify=True
        )


class TestAllreduceEndToEnd:
    @given(
        dims=small_dims,
        count=st.sampled_from([1, 13, 1000, 5000]),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_shaddr_sums_any_configuration(self, dims, count):
        machine = Machine(torus_dims=dims, mode=Mode.QUAD)
        run_collective(
            machine, "allreduce", "allreduce-torus-shaddr", count, iters=1,
            verify=True
        )


class TestDualMode:
    @pytest.mark.parametrize(
        "runner_algorithm",
        [
            ("bcast", "torus-direct-put"),
            ("bcast", "torus-fifo"),
            ("bcast", "torus-shaddr"),
            ("bcast", "tree-shmem"),
            ("allreduce", "allreduce-torus-current"),
            ("allreduce", "allreduce-tree"),
        ],
    )
    def test_dual_mode_verifies(self, runner_algorithm):
        kind, algorithm = runner_algorithm
        machine = Machine(torus_dims=(2, 2, 1), mode=Mode.DUAL)
        if kind == "bcast":
            run_collective(
                machine, "bcast", algorithm, 20_000, iters=1, verify=True
            )
        else:
            run_collective(
                machine, "allreduce", algorithm, 2500, iters=1, verify=True
            )
