"""Ring-pipelined broadcast for switched point-to-point fabrics.

Fat-tree and leaf-spine backends have neither the collective tree nor
the torus' deposit-bit line broadcasts, so their broadcast rides plain
point-to-point sends: nodes form a ring starting at the root's node, the
message is cut into pipeline chunks, and every node forwards chunk ``c``
to its ring successor as soon as the chunk has fully arrived — after the
pipeline fills, all ring links stream concurrently.

The intra-node stage is the paper's baseline: every chunk landing at a
node is DMA-direct-put into the peer processes' buffers
(:class:`~repro.collectives.common.DmaDirectPutDistributor`), i.e. the
"current" scheme generalized off the torus.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.collectives.base import BcastInvocation
from repro.collectives.common import DmaDirectPutDistributor
from repro.collectives.registry import register
from repro.hardware.tree import split_chunks
from repro.msg.color import torus_colors
from repro.sim.events import Event

#: pipeline chunk size; large enough to amortize per-send DMA startup,
#: small enough that the ring pipeline fills quickly
CHUNK_BYTES = 64 * 1024


@register("bcast")
class RingPipelinedBcast(BcastInvocation):
    """Chunked ring broadcast over ``ptp_send`` (any backend)."""

    name = "ring-pipelined"
    network = "ptp"

    def setup(self) -> None:
        machine = self.machine
        engine = machine.engine
        self.color = torus_colors(1)[0]
        self.root_node = machine.rank_to_node(self.root)
        self.ring: List[int] = machine.network.ring_order(
            self.color, self.root_node
        )
        self.nnodes = machine.nnodes
        self.chunks: List[int] = split_chunks(self.nbytes, CHUNK_BYTES)
        #: byte offset of each chunk in the message
        self.offsets: List[int] = []
        off = 0
        for size in self.chunks:
            self.offsets.append(off)
            off += size
        self.start = Event(engine)
        #: root's chunk c is staged and may enter the ring
        self.root_ready: List[Event] = [
            Event(engine) for _ in self.chunks
        ]
        #: (ring_position, chunk) -> chunk fully arrived at that node
        self._arrive: Dict[Tuple[int, int], Event] = {
            (i, c): Event(engine)
            for i in range(1, self.nnodes)
            for c in range(len(self.chunks))
        }
        self.distributor = DmaDirectPutDistributor(
            self, len(self.chunks), "rbc"
        )
        if self.nnodes > 1 and self.chunks:
            for position in range(self.nnodes - 1):
                machine.spawn(
                    self._ring_position(position), name=f"rbc.p{position}"
                )

    # -- intra-node landing ------------------------------------------------
    def _node_has_chunk(self, node: int, c: int) -> None:
        """Chunk ``c`` is present at ``node``: hand it to the master rank
        (the root holds it already on its own node) and queue the DMA
        direct-puts to the node's other ranks."""
        offset, size = self.offsets[c], self.chunks[c]
        if node != self.root_node:
            data = self.payload_slice(offset, size)
            if data is not None:
                self.write_result(self.machine.node_ranks(node)[0], offset,
                                  data)
        self.distributor.arrive(node, offset, size)

    # -- ring --------------------------------------------------------------
    def _ring_position(self, i: int):
        """Forward every chunk from ring position ``i`` to ``i + 1``."""
        yield self.start
        machine = self.machine
        engine = machine.engine
        node = self.ring[i]
        successor = self.ring[i + 1]
        for c, size in enumerate(self.chunks):
            if i == 0:
                yield self.root_ready[c]
            else:
                yield self._arrive[(i, c)]
            yield engine.timeout(machine.params.dma_startup)
            delivered = machine.network.ptp_send(
                self.color.id, node, successor, size,
                name=f"rbc.p{i}.s{c}",
            )
            delivered.on_trigger(
                lambda _v, position=i + 1, c=c:
                self._chunk_arrived(position, c)
            )
            yield delivered

    def _chunk_arrived(self, position: int, c: int) -> None:
        self._arrive[(position, c)].trigger(None)
        self._node_has_chunk(self.ring[position], c)

    # -- per-rank process --------------------------------------------------
    def proc(self, rank: int):
        machine = self.machine
        if self.nbytes == 0 or machine.nprocs == 1:
            return
        yield machine.engine.timeout(machine.params.mpi_overhead)
        if rank == self.root:
            self.start.trigger(None)
            # Stage the chunks into the ring (and to this node's peers).
            for c in range(len(self.chunks)):
                self._node_has_chunk(self.root_node, c)
                self.root_ready[c].trigger(None)
            return
        yield from self.distributor.wait_landed(self.context(rank))
