"""Torus broadcast, current approach: ``Torus Direct Put`` (section V-A-1).

The DMA moves the data both across the network *and* within the node ("an
extra fourth dimension is added to these multi-color spanning tree
algorithms ... note that DMA is involved in moving the data across the
different phases").  Every chunk that lands at a node is direct-put by the
DMA into the three peer processes' application buffers — three additional
2-raw-bytes-per-byte DMA transfers that overcommit the engine; "though the
DMA is capable of keeping all the six links busy of a 3D torus node, it is
not enough to concurrently transfer the data within the node along with the
network transfers".

``TorusDirectPutSmpBcast`` is the same algorithm in SMP mode (one process
per node, no intra-node stage): the reference curve of Fig 10.
"""

from __future__ import annotations

from repro.collectives.base import BcastInvocation
from repro.collectives.bcast.torus_common import TorusBcastNetwork
from repro.collectives.common import DmaDirectPutDistributor
from repro.collectives.registry import register


@register("bcast")
class TorusDirectPutBcast(BcastInvocation):
    """Quad-mode baseline: DMA direct put for the intra-node dimension."""

    name = "torus-direct-put"
    network = "torus"
    ncolors = 6

    def setup(self) -> None:
        chunk = self.machine.params.pipeline_width
        self.net = TorusBcastNetwork(self, self.ncolors, chunk)
        # Intra-node: the DMA chains local direct puts.
        self.distributor = DmaDirectPutDistributor(
            self, self.net.total_chunks_per_node, "rcvd"
        )
        self.net.on_chunk(
            lambda node, _c, goff, size:
            self.distributor.arrive(node, goff, size)
        )

    # -- per-rank coroutine --------------------------------------------------
    def proc(self, rank: int):
        ctx = self.context(rank)
        if self.nbytes == 0:
            return
        yield self.machine.engine.timeout(self.machine.params.mpi_overhead)
        if rank == self.root:
            self.net.open()
            # The root's own buffer is complete, but its peers still pull
            # through the DMA; the root returns once its local reception
            # state is consistent (counter poll).
            self.distributor.received[rank].set_at_least(self.nbytes)
        yield from self.distributor.wait_landed(ctx)


@register("bcast", modes=(1,))
class TorusDirectPutSmpBcast(TorusDirectPutBcast):
    """SMP-mode reference: one process per node, so the inherited intra-node
    loop over peers is empty and the DMA only serves the network — the peak
    curve of Fig 10.  Registered separately so experiment configs can select
    it by name while asserting the machine really is in SMP mode."""

    name = "torus-direct-put-smp"
    network = "torus"
