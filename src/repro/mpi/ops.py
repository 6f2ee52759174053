"""Reduction operators.

The modelled allreduces compute the paper's benchmark case, a sum of
doubles; :meth:`~repro.mpi.comm.Communicator.allreduce` times any other
operator by the byte volume it reduces, so an operator is its MPI name.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReduceOp:
    """An MPI reduction operator."""

    name: str

    def __str__(self) -> str:
        return self.name


SUM = ReduceOp("MPI_SUM")
MAX = ReduceOp("MPI_MAX")
MIN = ReduceOp("MPI_MIN")
PROD = ReduceOp("MPI_PROD")

_ALL = {op.name: op for op in (SUM, MAX, MIN, PROD)}


def lookup(name: str) -> ReduceOp:
    """Operator by MPI name (e.g. ``"MPI_SUM"``)."""
    if name not in _ALL:
        raise KeyError(f"unknown op {name!r}; known: {sorted(_ALL)}")
    return _ALL[name]
