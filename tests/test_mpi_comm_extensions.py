"""Tests for the Communicator's extension-collective methods."""

from repro import Communicator, Machine, Mode


def comm(dims=(2, 1, 1), mode=Mode.QUAD):
    return Communicator(Machine(torus_dims=dims, mode=mode))


class TestCommunicatorExtensions:
    def test_reduce_auto_quad(self):
        result = comm().reduce(count=2048, verify=True)
        assert result.algorithm == "reduce-torus-shaddr"

    def test_reduce_auto_falls_back_below_quad(self):
        result = comm(mode=Mode.DUAL).reduce(count=1024, verify=True)
        assert result.algorithm == "reduce-torus-current"

    def test_gather_accepts_size_strings(self):
        result = comm().gather(block_bytes="4K", verify=True)
        assert result.nbytes == 4096 * 8

    def test_scatter(self):
        result = comm().scatter(block_bytes="2K", verify=True)
        assert result.algorithm == "scatter-ring-shaddr"

    def test_allgather(self):
        result = comm().allgather(block_bytes="2K", verify=True)
        assert result.algorithm == "allgather-ring-shaddr"

    def test_barrier_algorithms(self):
        c = comm(dims=(2, 2, 1))
        gi = c.barrier()
        tree = c.barrier("barrier-tree")
        torus = c.barrier("barrier-torus")
        assert 0 < gi < tree
        assert gi < torus

    def test_explicit_algorithm_override(self):
        result = comm().reduce(
            count=1024, algorithm="reduce-torus-current", verify=True
        )
        assert result.algorithm == "reduce-torus-current"


class TestPublicApiSurface:
    def test_p2p_exported(self):
        from repro.mpi import PingPongResult, run_pingpong, select_protocol

        assert select_protocol(1) == "eager"
        result = run_pingpong(
            Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD), 1024
        )
        assert isinstance(result, PingPongResult)

    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name
