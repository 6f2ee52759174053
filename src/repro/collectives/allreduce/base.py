"""Base class for allreduce invocations.

The operation is the paper's benchmark case: the element-wise **sum of
doubles** over all ranks.  ``values`` (when verifying) is an
``(nprocs, count)`` float64 array; every rank must end with
``values.sum(axis=0)``.

Byte-level plumbing: the collective engines move *bytes*; the logical
payload of the broadcast stage is the final reduced vector, so
:meth:`payload_slice` views the expected result as uint8 — by the time any
byte of it is broadcast, the ring reduction has produced exactly those
bytes at the root (asserted chunk-by-chunk when data is carried).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.collectives.base import InvocationBase
from repro.hardware.machine import Machine

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: bytes per element (the benchmark reduces doubles)
DOUBLE = 8


class AllreduceInvocation(InvocationBase):
    """One ``MPI_Allreduce(..., MPI_DOUBLE, MPI_SUM)`` call."""

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
            self._expected_bytes = self.expected.view(np.uint8)
            self.result_buffers: Dict[int, np.ndarray] = {
                rank: np.zeros(count, dtype=np.float64)
                for rank in range(machine.nprocs)
            }
        self.setup()

    # -- byte-level hooks used by the broadcast stage -----------------------
    def payload_slice(self, offset: int, size: int) -> Optional[np.ndarray]:
        if not self.carry_data:
            return None
        return self._expected_bytes[offset:offset + size]

    def write_result(self, rank: int, offset: int, data: np.ndarray) -> None:
        if self.carry_data:
            import numpy as np

            view = self.result_buffers[rank].view(np.uint8)
            view[offset:offset + data.nbytes] = data

    # -- element-level helpers for the reduction stage -----------------------
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

    def verify(self) -> None:
        """Assert every rank holds the exact element-wise sum."""
        if not self.carry_data:
            raise RuntimeError("verify() requires carry_data=True")
        import numpy as np

        for rank in range(self.machine.nprocs):
            if not np.array_equal(self.result_buffers[rank], self.expected):
                mismatch = int(
                    np.argmax(self.result_buffers[rank] != self.expected)
                )
                raise AssertionError(
                    f"rank {rank}: allreduce mismatch at element {mismatch}: "
                    f"{self.result_buffers[rank][mismatch]} != "
                    f"{self.expected[mismatch]}"
                )
