"""Base class for gather invocations.

Every rank contributes ``block_bytes``; the root ends with the
concatenation of all contributions in rank order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.collectives.base import InvocationBase
from repro.hardware.machine import Machine

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class GatherInvocation(InvocationBase):
    """One ``MPI_Gather`` call (root = rank 0)."""

    def __init__(
        self,
        machine: Machine,
        block_bytes: int,
        blocks: Optional[np.ndarray] = None,
        window_caching: bool = True,
    ):
        if block_bytes < 0:
            raise ValueError(f"block_bytes must be >= 0, got {block_bytes}")
        super().__init__(
            machine, 0, block_bytes * machine.nprocs, window_caching
        )
        self.block_bytes = block_bytes
        self.carry_data = blocks is not None
        self.blocks = blocks
        if self.carry_data:
            import numpy as np

            if blocks.shape != (machine.nprocs, block_bytes):
                raise ValueError(
                    f"blocks must have shape ({machine.nprocs}, "
                    f"{block_bytes}), got {blocks.shape}"
                )
            self.expected = blocks.reshape(-1)
            self.root_buffer = np.zeros(self.nbytes, dtype=np.uint8)
        self.setup()

    def payload_slice(self, offset: int, size: int) -> Optional[np.ndarray]:
        if not self.carry_data:
            return None
        return self.expected[offset:offset + size]

    def write_root(self, offset: int, data: np.ndarray) -> None:
        if self.carry_data:
            self.root_buffer[offset:offset + data.nbytes] = data

    def node_block_range(self, node: int):
        """(offset, size) of one node's aggregated contribution."""
        ppn = self.machine.ppn
        return node * ppn * self.block_bytes, ppn * self.block_bytes

    def verify(self) -> None:
        if not self.carry_data:
            raise RuntimeError("verify() requires carry_data=True")
        import numpy as np

        if not np.array_equal(self.root_buffer, self.expected):
            mismatch = int(np.argmax(self.root_buffer != self.expected))
            raise AssertionError(f"gather mismatch at byte {mismatch}")
