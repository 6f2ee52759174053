"""Ring allreduce for switched point-to-point fabrics.

Fat-tree and leaf-spine backends have no deposit-bit line broadcasts, so
the rectangle-schedule allreduce variants cannot run there.  This
algorithm keeps the paper's V-C pipeline structure — a multi-color ring
reduction toward the root feeding a pipelined broadcast of the reduced
data — but rides plain ``ptp_send`` end to end:

1. **local gather + reduce** per node (the baseline scheme: DMA-staged
   copies of every peer's slice, then the cores sum the staged buffers);
2. a ring reduction per color over ``machine.network.ring_order``;
   stages 1 and 2 are
   :class:`~repro.collectives.allreduce.ring.RingReduction`, exactly the
   reduction the torus variants use, which is already point-to-point;
3. a chunked **ring broadcast** per color from the root (the
   ring-pipelined bcast scheme), fed chunk by chunk as the ring
   reduction produces results, with every arrived chunk DMA-direct-put
   into the node's peer buffers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.collectives.allreduce.base import AllreduceInvocation
from repro.collectives.allreduce.ring import RingReduction
from repro.collectives.common import DmaDirectPutDistributor
from repro.collectives.registry import register
from repro.sim.events import Event


@register("allreduce")
class RingPipelinedAllreduce(AllreduceInvocation):
    """Multi-color ring reduction + pipelined ring broadcast (any backend)."""

    name = "allreduce-ring-pipelined"
    network = "ptp"
    ncolors = 3

    def setup(self) -> None:
        machine = self.machine
        engine = machine.engine
        self.root_node = machine.rank_to_node(self.root)
        self.start = Event(engine)
        # Stages 1 and 2: the DMA-staged local reduce and the ring
        # reduction (master core does every addition, as on the torus).
        stage = RingReduction(
            self, self.ncolors, self.start, self._root_chunk, staged=True,
        )
        self.colors = stage.colors
        self.offsets = stage.offsets
        self.plans = stage.plans
        self.distributor = DmaDirectPutDistributor(
            self, sum(plan.nchunks for plan in self.plans), "result"
        )
        #: per-color broadcast ring (position 0 is the root's node)
        self.rings_order: List[List[int]] = [
            machine.network.ring_order(color, self.root_node)
            for color in self.colors
        ]
        #: reduced chunk k of color c is staged at the root
        self._bc_ready: Dict[Tuple[int, int], Event] = {}
        #: (color, ring position, chunk) fully arrived at that position
        self._bc_arrive: Dict[Tuple[int, int, int], Event] = {}
        #: next chunk index the ring reduction will deliver, per color
        self._next_chunk = [0] * self.ncolors
        for c, plan in enumerate(self.plans):
            if plan.nchunks == 0:
                continue
            ring = self.rings_order[c]
            for k in range(plan.nchunks):
                self._bc_ready[(c, k)] = Event(engine)
                for i in range(1, len(ring)):
                    self._bc_arrive[(c, i, k)] = Event(engine)
            for i in range(len(ring) - 1):
                machine.spawn(
                    self._bcast_position(c, i), name=f"rarb.c{c}.p{i}"
                )

    # -- stage 2 -> 3 handoff ------------------------------------------------
    def _root_chunk(self, c: int, goff: int, size: int) -> None:
        """The ring delivered a reduced chunk at the root: hand it to the
        root node's ranks and stage it into this color's broadcast ring
        (position 0 delivers chunks strictly in plan order)."""
        self._node_has_chunk(self.root_node, goff, size)
        k = self._next_chunk[c]
        self._next_chunk[c] += 1
        self._bc_ready[(c, k)].trigger(None)

    # -- stage 3: pipelined ring broadcast ----------------------------------
    def _bcast_position(self, c: int, i: int):
        """Forward color ``c``'s chunks from ring position ``i`` to ``i+1``."""
        yield self.start
        machine = self.machine
        engine = machine.engine
        ring = self.rings_order[c]
        node, successor = ring[i], ring[i + 1]
        for k, off, size in self.plans[c].slices():
            goff = self.offsets[c] + off
            if i == 0:
                yield self._bc_ready[(c, k)]
            else:
                yield self._bc_arrive[(c, i, k)]
            yield engine.timeout(machine.params.dma_startup)
            delivered = machine.network.ptp_send(
                self.colors[c].id, node, successor, size,
                name=f"rarb.c{c}.p{i}.k{k}",
            )
            delivered.on_trigger(
                lambda _v, c=c, position=i + 1, k=k, goff=goff, size=size:
                self._chunk_arrived(c, position, k, goff, size)
            )
            # In-order injection per connection.
            yield delivered

    def _chunk_arrived(self, c: int, position: int, k: int, goff: int,
                       size: int) -> None:
        self._bc_arrive[(c, position, k)].trigger(None)
        self._node_has_chunk(self.rings_order[c][position], goff, size)

    # -- intra-node landing --------------------------------------------------
    def _node_has_chunk(self, node: int, goff: int, size: int) -> None:
        master = self.machine.node_ranks(node)[0]
        data = self.payload_slice(goff, size)
        if data is not None:
            self.write_result(master, goff, data)
        self.distributor.arrive(node, goff, size)

    # -- per-rank coroutine ---------------------------------------------------
    def proc(self, rank: int):
        ctx = self.context(rank)
        if self.count == 0:
            return
        yield self.machine.engine.timeout(self.machine.params.mpi_overhead)
        if rank == self.root:
            self.start.trigger(None)
        yield from self.distributor.wait_landed(ctx)
