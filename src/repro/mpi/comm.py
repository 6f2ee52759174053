"""The Communicator: the user-facing entry point.

A communicator wraps a machine and exposes the collectives the paper
optimizes.  Each call runs the Fig-5 measurement loop on the simulated
machine and returns a :class:`~repro.collectives.base.CollectiveResult`
(timing + bandwidth); with ``verify=True`` real payload bytes flow through
every modelled stage and are checked bit-exactly.

Example
-------
>>> from repro import Machine, Mode, Communicator
>>> m = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
>>> comm = Communicator(m)
>>> result = comm.bcast(nbytes="128K", algorithm="torus-shaddr")
>>> result.bandwidth_mbs  # doctest: +SKIP
"""

from __future__ import annotations

from typing import Union

from repro.bench.harness import run_collective
from repro.collectives.base import CollectiveResult
from repro.hardware.machine import Machine
from repro.mpi.datatypes import DOUBLE, Datatype
from repro.mpi.ops import SUM, ReduceOp
from repro.util.units import parse_size


class Communicator:
    """MPI_COMM_WORLD over a simulated BG/P machine."""

    def __init__(self, machine: Machine):
        self.machine = machine

    @property
    def size(self) -> int:
        """Number of MPI ranks."""
        return self.machine.nprocs

    # -- collectives -----------------------------------------------------
    def bcast(
        self,
        nbytes: Union[int, str],
        root: int = 0,
        algorithm: str = "auto",
        iters: int = 1,
        verify: bool = False,
        window_caching: bool = True,
    ) -> CollectiveResult:
        """Measure an ``MPI_Bcast`` of ``nbytes`` (int or ``"128K"`` style).

        ``algorithm="auto"`` applies the BG/P message-size selection policy
        (the section-V table in :mod:`repro.collectives.selection`); any
        registered name (see ``list_algorithms("bcast")`` in
        :mod:`repro.collectives.registry`) forces a specific scheme.
        """
        return run_collective(
            self.machine,
            "bcast",
            algorithm,
            parse_size(nbytes),
            root=root,
            iters=iters,
            verify=verify,
            window_caching=window_caching,
        )

    def allreduce(
        self,
        count: int,
        dtype: Datatype = DOUBLE,
        op: ReduceOp = SUM,
        algorithm: str = "auto",
        iters: int = 1,
        verify: bool = False,
        window_caching: bool = True,
    ) -> CollectiveResult:
        """Measure an ``MPI_Allreduce`` of ``count`` elements.

        The modelled algorithms implement the paper's benchmark case
        (sum of doubles); other dtypes/ops are validated and converted to
        the equivalent byte volume for timing, with verification supported
        for the double-sum case.
        """
        if dtype is not DOUBLE or op is not SUM:
            if verify:
                raise NotImplementedError(
                    "payload verification is implemented for the paper's "
                    "benchmark case (MPI_DOUBLE + MPI_SUM)"
                )
            # Timing model: scale to the byte volume of doubles.
            count = max(1, count * dtype.itemsize // DOUBLE.itemsize)
        return run_collective(
            self.machine,
            "allreduce",
            algorithm,
            count,
            iters=iters,
            verify=verify,
            window_caching=window_caching,
        )

    def reduce(
        self,
        count: int,
        algorithm: str = "auto",
        iters: int = 1,
        verify: bool = False,
        window_caching: bool = True,
    ) -> CollectiveResult:
        """Measure an ``MPI_Reduce`` (sum of doubles to rank 0)."""
        return run_collective(
            self.machine, "reduce", algorithm, count, iters=iters,
            verify=verify, window_caching=window_caching,
        )

    def gather(
        self,
        block_bytes: Union[int, str],
        algorithm: str = "gather-ring-shaddr",
        iters: int = 1,
        verify: bool = False,
    ) -> CollectiveResult:
        """Measure an ``MPI_Gather`` to rank 0."""
        return run_collective(
            self.machine, "gather", algorithm, parse_size(block_bytes),
            iters=iters, verify=verify,
        )

    def scatter(
        self,
        block_bytes: Union[int, str],
        algorithm: str = "scatter-ring-shaddr",
        iters: int = 1,
        verify: bool = False,
    ) -> CollectiveResult:
        """Measure an ``MPI_Scatter`` from rank 0."""
        return run_collective(
            self.machine, "scatter", algorithm, parse_size(block_bytes),
            iters=iters, verify=verify,
        )

    def allgather(
        self,
        block_bytes: Union[int, str],
        algorithm: str = "allgather-ring-shaddr",
        iters: int = 1,
        verify: bool = False,
    ) -> CollectiveResult:
        """Measure an ``MPI_Allgather``.

        ``algorithm="auto"`` picks the section-VII extension policy by
        per-rank block size.
        """
        return run_collective(
            self.machine, "allgather", algorithm, parse_size(block_bytes),
            iters=iters, verify=verify,
        )

    def alltoall(
        self,
        block_bytes: Union[int, str],
        algorithm: str = "alltoall-shift-shaddr",
        iters: int = 1,
        verify: bool = False,
    ) -> CollectiveResult:
        """Measure an ``MPI_Alltoall`` with per-pair blocks."""
        return run_collective(
            self.machine, "alltoall", algorithm, parse_size(block_bytes),
            iters=iters, verify=verify,
        )

    def barrier(self, algorithm: str = "barrier-gi") -> float:
        """Run one global barrier; returns its measured latency in µs
        (excluding the MPI software entry overhead)."""
        result = run_collective(self.machine, "barrier", algorithm)
        return result.elapsed_us - self.machine.params.mpi_overhead

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator size={self.size} machine={self.machine!r}>"
