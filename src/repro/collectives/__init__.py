"""Collective algorithms: the paper's baselines and proposed schemes.

Broadcast over the 3D torus (large messages, section V-A):

========================  ====================================================
``torus-direct-put``      current best DMA algorithm (baseline; the DMA also
                          moves data intra-node — the "fourth dimension")
``torus-direct-put-smp``  the SMP-mode reference (one process per node)
``torus-fifo``            proposed: shared-memory Bcast FIFO intra-node
``torus-shaddr``          proposed: shared-address + software message counters
========================  ====================================================

Broadcast over the collective network (short/medium, section V-B):

==========================  ==================================================
``tree-smp``                SMP-mode reference (hardware envelope)
``tree-dma-fifo``           current: DMA delivers to peers' memory FIFOs
``tree-dma-direct-put``     current: DMA direct-puts into peers' buffers
``tree-shmem``              proposed latency scheme: shared staging segment
``tree-shaddr``             proposed bandwidth scheme: core specialization
==========================  ==================================================

Allreduce over the torus (section V-C):

===========================  =================================================
``allreduce-torus-current``  baseline ring+bcast, DMA moves everything
``allreduce-torus-shaddr``   proposed: one network core + three reduce/bcast
                             cores (one per color), counter-pipelined
===========================  =================================================

Plus the future-work extension (section VII): shared-memory/-address
allgather algorithms.
"""

from repro.collectives.base import (
    BcastInvocation,
    CollectiveResult,
    InvocationSession,
    ProcContext,
)
from repro.collectives.registry import (
    AlgorithmInfo,
    families,
    get_algorithm,
    iter_algorithms,
    list_algorithms,
    register,
    select_protocol,
)

__all__ = [
    "AlgorithmInfo",
    "BcastInvocation",
    "CollectiveResult",
    "InvocationSession",
    "ProcContext",
    "families",
    "get_algorithm",
    "iter_algorithms",
    "list_algorithms",
    "register",
    "select_protocol",
]
