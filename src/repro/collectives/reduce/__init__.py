"""Reduce-to-root algorithms (extension).

``MPI_Reduce`` is the allreduce (section V-C) without the broadcast stage:
locally reduce each node's contributions, then run the multi-color
pipelined ring reduction to the root — the allreduce's own reduction
stage, :class:`repro.collectives.allreduce.ring.RingReduction`, whose
root chunks land in the root's buffer.  The intra-node contrast carries
over unchanged:

``reduce-torus-current``
    DMA gathers the peers' partitions into staging (redundant copies),
    local cores sum the staged buffers, the master core runs the ring with
    memory-FIFO receptions.

``reduce-torus-shaddr``
    Three worker cores sum the mapped application buffers in place (one
    color each); the dedicated protocol core runs the ring with direct-put
    receptions.
"""

from repro.collectives.reduce.base import ReduceInvocation
from repro.collectives.reduce.torus import (
    TorusCurrentReduce,
    TorusShaddrReduce,
)

__all__ = ["ReduceInvocation", "TorusCurrentReduce", "TorusShaddrReduce"]
