"""Base class for alltoall invocations.

``blocks[src, dst]`` is the block rank ``src`` sends to rank ``dst``; rank
``r`` must end with the column ``blocks[:, r]`` assembled in source order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.collectives.base import InvocationBase
from repro.hardware.machine import Machine

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class AlltoallInvocation(InvocationBase):
    """One ``MPI_Alltoall`` call."""

    def __init__(
        self,
        machine: Machine,
        block_bytes: int,
        blocks: Optional[np.ndarray] = None,
        window_caching: bool = True,
    ):
        if block_bytes < 0:
            raise ValueError(f"block_bytes must be >= 0, got {block_bytes}")
        # Total bytes each rank receives (= sends).
        super().__init__(
            machine, 0, block_bytes * machine.nprocs, window_caching
        )
        self.block_bytes = block_bytes
        self.carry_data = blocks is not None
        self.blocks = blocks
        if self.carry_data:
            import numpy as np

            expected_shape = (machine.nprocs, machine.nprocs, block_bytes)
            if blocks.shape != expected_shape:
                raise ValueError(
                    f"blocks must have shape {expected_shape}, got "
                    f"{blocks.shape}"
                )
            self.result_buffers: Dict[int, np.ndarray] = {
                rank: np.zeros(
                    (machine.nprocs, block_bytes), dtype=np.uint8
                )
                for rank in range(machine.nprocs)
            }
        self.setup()

    def deliver(self, src_rank: int, dst_rank: int) -> None:
        """Record that ``src_rank``'s block reached ``dst_rank``'s buffer."""
        if self.carry_data:
            self.result_buffers[dst_rank][src_rank] = (
                self.blocks[src_rank, dst_rank]
            )

    def deliver_node_set(self, src_node: int, dst_node: int) -> None:
        """All blocks from ``src_node``'s ranks to ``dst_node``'s ranks."""
        if not self.carry_data:
            return
        for src_rank in self.machine.node_ranks(src_node):
            for dst_rank in self.machine.node_ranks(dst_node):
                self.deliver(src_rank, dst_rank)

    def node_set_bytes(self) -> int:
        """Bytes of one node->node block set (ppn x ppn blocks)."""
        ppn = self.machine.ppn
        return ppn * ppn * self.block_bytes

    def verify(self) -> None:
        if not self.carry_data:
            raise RuntimeError("verify() requires carry_data=True")
        import numpy as np

        for rank in range(self.machine.nprocs):
            expected = self.blocks[:, rank]
            if not np.array_equal(self.result_buffers[rank], expected):
                src = int(
                    np.argmax(
                        (self.result_buffers[rank] != expected).any(axis=1)
                    )
                )
                raise AssertionError(
                    f"rank {rank}: alltoall missing/incorrect block from "
                    f"rank {src}"
                )
