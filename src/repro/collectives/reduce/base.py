"""Base class for reduce-to-root invocations (sum of doubles, root 0)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.collectives.base import InvocationBase
from repro.hardware.machine import Machine

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

DOUBLE = 8


class ReduceInvocation(InvocationBase):
    """One ``MPI_Reduce(..., MPI_DOUBLE, MPI_SUM, root=0)`` call."""

    def __init__(
        self,
        machine: Machine,
        count: int,
        values: Optional[np.ndarray] = None,
        window_caching: bool = True,
    ):
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        super().__init__(machine, 0, count * DOUBLE, window_caching)
        self.count = count
        self.carry_data = values is not None
        self.values = values
        if self.carry_data:
            import numpy as np

            if values.shape != (machine.nprocs, count):
                raise ValueError(
                    f"values must have shape ({machine.nprocs}, {count}), "
                    f"got {values.shape}"
                )
            self.expected = values.sum(axis=0)
            self.root_result = np.zeros(count, dtype=np.float64)
        self.setup()

    def local_contribution(self, node: int, off_bytes: int, size: int
                           ) -> Optional[np.ndarray]:
        """The node's locally reduced contribution for one byte range."""
        if not self.carry_data:
            return None
        lo, hi = off_bytes // DOUBLE, (off_bytes + size) // DOUBLE
        ranks = self.machine.node_ranks(node)
        return self.values[ranks, lo:hi].sum(axis=0)

    def expected_slice_f64(self, off_bytes: int, size: int
                           ) -> Optional[np.ndarray]:
        if not self.carry_data:
            return None
        lo, hi = off_bytes // DOUBLE, (off_bytes + size) // DOUBLE
        return self.expected[lo:hi]

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
