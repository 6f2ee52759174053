"""Tests for the MPI-facing layer: datatypes, ops, Communicator."""

import pytest

from repro import (
    DOUBLE,
    FLOAT,
    MAX,
    SUM,
    Communicator,
    Machine,
    Mode,
)
from repro.collectives.registry import list_algorithms
from repro.mpi import datatypes, ops


class TestDatatypes:
    def test_lookup(self):
        assert datatypes.lookup("MPI_DOUBLE") is DOUBLE
        with pytest.raises(KeyError):
            datatypes.lookup("MPI_NOPE")

    def test_str(self):
        assert str(FLOAT) == "MPI_FLOAT"


class TestOps:
    def test_lookup(self):
        assert ops.lookup("MPI_SUM") is SUM
        with pytest.raises(KeyError):
            ops.lookup("MPI_XOR")


class TestCommunicator:
    def test_size(self):
        comm = Communicator(Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD))
        assert comm.size == 16

    def test_bcast_accepts_size_strings(self):
        comm = Communicator(Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD))
        result = comm.bcast(nbytes="16K", verify=True)
        assert result.nbytes == 16 * 1024

    def test_bcast_auto_selection_by_size(self):
        comm = Communicator(Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD))
        assert comm.bcast(nbytes=256).algorithm == "tree-shmem"
        assert comm.bcast(nbytes=64 * 1024).algorithm == "tree-shaddr"
        assert comm.bcast(nbytes=1024 * 1024).algorithm == "torus-shaddr"

    def test_bcast_explicit_algorithm(self):
        comm = Communicator(Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD))
        result = comm.bcast(nbytes=4096, algorithm="torus-fifo", verify=True)
        assert result.algorithm == "torus-fifo"

    def test_allreduce_auto(self):
        comm = Communicator(Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD))
        assert comm.allreduce(count=128).algorithm == "allreduce-tree"
        assert (
            comm.allreduce(count=64 * 1024).algorithm
            == "allreduce-torus-shaddr"
        )

    def test_allreduce_verify(self):
        comm = Communicator(Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD))
        comm.allreduce(count=2048, verify=True)

    def test_allreduce_other_dtype_times_by_volume(self):
        comm = Communicator(Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD))
        result = comm.allreduce(count=1000, dtype=FLOAT, op=MAX)
        assert result.elapsed_us > 0

    def test_allreduce_other_op_verify_unsupported(self):
        comm = Communicator(Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD))
        with pytest.raises(NotImplementedError):
            comm.allreduce(count=100, op=MAX, verify=True)

    def test_barrier_latency(self):
        comm = Communicator(Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD))
        assert comm.barrier() == pytest.approx(
            comm.machine.params.barrier_latency
        )

    def test_available_algorithms_nonempty(self):
        assert "torus-shaddr" in list_algorithms("bcast")
