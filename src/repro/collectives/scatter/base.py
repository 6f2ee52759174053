"""Base class for scatter invocations (root = rank 0)."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.collectives.base import InvocationBase
from repro.hardware.machine import Machine


class ScatterInvocation(InvocationBase):
    """One ``MPI_Scatter`` call: rank ``r`` receives block ``r``."""

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
            if blocks.shape != (machine.nprocs, block_bytes):
                raise ValueError(
                    f"blocks must have shape ({machine.nprocs}, "
                    f"{block_bytes}), got {blocks.shape}"
                )
            self.result_buffers: Dict[int, np.ndarray] = {
                rank: np.zeros(block_bytes, dtype=np.uint8)
                for rank in range(machine.nprocs)
            }
        self.setup()

    def deliver(self, rank: int) -> None:
        """Record that ``rank``'s block landed in its receive buffer."""
        if self.carry_data:
            self.result_buffers[rank][:] = self.blocks[rank]

    def node_block_size(self) -> int:
        return self.block_bytes * self.machine.ppn

    def verify(self) -> None:
        if not self.carry_data:
            raise RuntimeError("verify() requires carry_data=True")
        for rank in range(self.machine.nprocs):
            if not np.array_equal(self.result_buffers[rank],
                                  self.blocks[rank]):
                mismatch = int(
                    np.argmax(self.result_buffers[rank] != self.blocks[rank])
                )
                raise AssertionError(
                    f"rank {rank}: scatter mismatch at byte {mismatch}"
                )
