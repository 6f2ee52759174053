"""Base class for reduce-to-root invocations (sum of doubles, root 0)."""

from __future__ import annotations

from repro.collectives.allreduce.base import DOUBLE, SumOfDoublesInvocation


class ReduceInvocation(SumOfDoublesInvocation):
    """One ``MPI_Reduce(..., MPI_DOUBLE, MPI_SUM, root=0)`` call."""

    def allocate_results(self) -> None:
        import numpy as np

        self.root_result = np.zeros(self.count, dtype=np.float64)

    def write_root_slice(self, off_bytes: int, size: int) -> None:
        if self.carry_data:
            lo, hi = off_bytes // DOUBLE, (off_bytes + size) // DOUBLE
            self.root_result[lo:hi] = self.expected[lo:hi]

    def verify(self) -> None:
        if not self.carry_data:
            raise RuntimeError("verify() requires carry_data=True")
        import numpy as np

        if not np.array_equal(self.root_result, self.expected):
            mismatch = int(np.argmax(self.root_result != self.expected))
            raise AssertionError(f"reduce mismatch at element {mismatch}")
