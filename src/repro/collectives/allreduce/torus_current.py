"""Allreduce over the torus, current approach (section V-C-1).

"The basic idea in the algorithm used is to pipeline the reduction and
broadcast phases of the allreduce.  A ring algorithm is used in the
reduction followed by the broadcast of the reduced data from the assigned
root process. ... This scheme is not optimal as redundant copies of data
are transferred by the DMA for the reduction operation.  Also, the DMA
cannot keep pace with both the inter- and intra-node data transfers."

Concretely, per color partition:

1. **local gather + reduce** — the DMA copies the three peers' partitions
   into the master's staging area (the "redundant copies"), then the four
   cores sum the staged buffers in parallel quarter shares;
2. **ring reduction** across nodes (master core does every addition) —
   stages 1 and 2 are the shared
   :class:`~repro.collectives.allreduce.ring.RingReduction`;
3. **pipelined broadcast** of the reduced partition over the same color
   route, with the DMA direct-putting every arrived chunk into the three
   peer buffers (the intra-node "fourth dimension" again).

Everything except the cores' additions rides the DMA, so the engine is the
bottleneck — the "Current (MB/s)" column of Table I.
"""

from __future__ import annotations

from repro.collectives.allreduce.base import DOUBLE, AllreduceInvocation
from repro.collectives.allreduce.ring import RingReduction
from repro.collectives.bcast.torus_common import TorusBcastNetwork
from repro.collectives.common import DmaDirectPutDistributor
from repro.collectives.registry import register


@register("allreduce")
class TorusCurrentAllreduce(AllreduceInvocation):
    """Baseline multi-color ring+broadcast allreduce, DMA-driven intra-node."""

    name = "allreduce-torus-current"
    # The broadcast stage is the rectangle schedule over deposit-bit
    # line broadcasts: this algorithm needs the real torus wire.
    network = "torus"
    ncolors = 3

    def setup(self) -> None:
        machine = self.machine
        self.net = TorusBcastNetwork(
            self, self.ncolors, machine.params.pipeline_width,
            external_root_feed=True, align=DOUBLE,
        )
        # Stage 3 intra-node: the DMA direct-puts every arrived chunk.
        self.distributor = DmaDirectPutDistributor(
            self, self.net.total_chunks_per_node, "result"
        )
        self.net.on_chunk(
            lambda node, _c, goff, size:
            self.distributor.arrive(node, goff, size)
        )
        # Stages 1 and 2: the DMA-staged local reduce (the "redundant
        # copies") and the ring reduction, whose master core does every
        # addition; the root's reduced chunks feed the broadcast.
        RingReduction(
            self, self.ncolors, self.net.start, self.net.feed_root,
            staged=True,
        )

    # -- per-rank coroutine --------------------------------------------------
    def proc(self, rank: int):
        ctx = self.context(rank)
        if self.count == 0:
            return
        yield self.machine.engine.timeout(self.machine.params.mpi_overhead)
        if rank == self.root:
            self.net.open()
        yield from self.distributor.wait_landed(ctx)
