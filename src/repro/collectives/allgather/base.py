"""Base class for allgather invocations.

Every rank contributes ``block_bytes``; every rank ends with the
concatenation of all contributions in rank order (``nprocs x block_bytes``
bytes).  When verifying, contributions are pseudo-random byte blocks and
every rank's assembled buffer is checked bit-exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.collectives.base import InvocationBase
from repro.hardware.machine import Machine
from repro.util.buffers import same_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class AllgatherInvocation(InvocationBase):
    """One ``MPI_Allgather`` call."""

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
            #: the expected assembled buffer (same at every rank)
            self.expected = blocks.reshape(-1)
            self.result_buffers: Dict[int, np.ndarray] = {
                rank: np.zeros(self.nbytes, dtype=np.uint8)
                for rank in range(machine.nprocs)
            }
        self.setup()

    # -- data hooks -------------------------------------------------------
    def payload_slice(self, offset: int, size: int) -> Optional[np.ndarray]:
        if not self.carry_data:
            return None
        return self.expected[offset:offset + size]

    def write_result(self, rank: int, offset: int, data: np.ndarray) -> None:
        if self.carry_data:
            self.result_buffers[rank][offset:offset + data.nbytes] = data

    def node_block_range(self, node: int):
        """(offset, size) of a node's aggregated contribution."""
        ppn = self.machine.ppn
        return (
            node * ppn * self.block_bytes,
            ppn * self.block_bytes,
        )

    def verify(self) -> None:
        if not self.carry_data:
            raise RuntimeError("verify() requires carry_data=True")
        for rank in range(self.machine.nprocs):
            if not same_bytes(self.result_buffers[rank], self.expected):
                import numpy as np

                mismatch = int(
                    np.argmax(self.result_buffers[rank] != self.expected)
                )
                raise AssertionError(
                    f"rank {rank}: allgather mismatch at byte {mismatch}"
                )
