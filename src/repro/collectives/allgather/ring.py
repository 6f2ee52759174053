"""Node-level ring allgather: DMA baseline and shared-address variants.

Ring structure (both variants): nodes form a snake ring; at step ``s`` each
node sends the node-block it obtained at step ``s-1`` (starting with its
own) to its ring successor, so after ``N-1`` steps every node holds every
node's block.  Steps are pipelined — a node forwards a block as soon as it
has fully arrived.

The variants differ exactly where the paper's broadcast variants differ:

* **current**: the node block must first be staged (the DMA copies the
  three peers' blocks into the master), and every arriving node-block is
  then DMA-direct-put into the three peers' buffers — all intra-node bytes
  ride the already-busy DMA;
* **shaddr**: the network protocol reads contributions straight from the
  peers' mapped application buffers (no staging gather); the master
  publishes arrivals through a software message counter and the peer cores
  copy arrived blocks directly out of the master's receive buffer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.collectives.allgather.base import AllgatherInvocation
from repro.collectives.common import CounterBroadcast, DmaDirectPutDistributor
from repro.collectives.registry import register
from repro.msg.color import torus_colors
from repro.sim.events import AllOf, Event
from repro.telemetry.recorder import ROLE_COPIER, ROLE_PROTOCOL


class _RingAllgatherBase(AllgatherInvocation):
    """Shared ring machinery; subclasses plug the intra-node stages."""

    network = "ptp"

    def setup(self) -> None:
        machine = self.machine
        engine = machine.engine
        self.color = torus_colors(1)[0]
        self.ring: List[int] = machine.network.ring_order(self.color, 0)
        self.nnodes = machine.nnodes
        self.start = Event(engine)
        #: per node: its own aggregated block is ready to enter the ring
        self.own_ready: List[Event] = [
            Event(engine) for _ in range(self.nnodes)
        ]
        #: arrival events: (ring_position, step) -> block fully received
        self._arrive: Dict[Tuple[int, int], Event] = {
            (i, s): Event(engine)
            for i in range(self.nnodes)
            for s in range(self.nnodes - 1)
        }
        for position in range(self.nnodes):
            machine.spawn(
                self._ring_position(position), name=f"ag.p{position}"
            )

    # hooks ------------------------------------------------------------
    def _on_node_block(self, node: int, src_node: int) -> None:
        """A node now holds ``src_node``'s aggregated block."""
        raise NotImplementedError

    def _intra_node(self, ctx, master: int):
        """Sub-generator: rank ``ctx``'s part of its node's stages, where
        ``master`` is the rank the ring sends from and lands in."""
        raise NotImplementedError

    # per rank -------------------------------------------------------------
    def proc(self, rank: int):
        ctx = self.context(rank)
        machine = self.machine
        own_off = rank * self.block_bytes
        data = self.payload_slice(own_off, self.block_bytes)
        if data is not None:
            self.write_result(rank, own_off, data)
        if self.block_bytes == 0 or machine.nprocs == 1:
            return
        yield machine.engine.timeout(machine.params.mpi_overhead)
        if rank == machine.node_ranks(0)[0]:
            self.start.trigger(None)
        yield from self._intra_node(
            ctx, machine.node_ranks(ctx.node_index)[0]
        )

    # ring -----------------------------------------------------------------
    def _ring_position(self, i: int):
        yield self.start
        machine = self.machine
        engine = machine.engine
        node = self.ring[i]
        ppn = machine.ppn
        block = self.block_bytes * ppn  # one node's aggregated block
        if block == 0 or self.nnodes == 1:
            return
        successor = self.ring[(i + 1) % self.nnodes]
        for step in range(self.nnodes - 1):
            # Which node's block do we forward at this step?
            src_position = (i - step) % self.nnodes
            src_node = self.ring[src_position]
            if step == 0:
                yield self.own_ready[node]
            else:
                yield self._arrive[(i, step - 1)]
            yield engine.timeout(machine.params.dma_startup)
            delivered = machine.network.ptp_send(
                self.color.id, node, successor, block,
                name=f"ag.p{i}.s{step}",
            )
            next_i = (i + 1) % self.nnodes
            delivered.on_trigger(
                lambda _v, next_i=next_i, step=step, src_node=src_node:
                self._block_arrived(next_i, step, src_node)
            )
            yield delivered

    def _block_arrived(self, position: int, step: int, src_node: int) -> None:
        node = self.ring[position]
        self._arrive[(position, step)].trigger(None)
        offset, size = self.node_block_range(src_node)
        master = self.machine.node_ranks(node)[0]
        data = self.payload_slice(offset, size)
        if data is not None:
            self.write_result(master, offset, data)
        self._on_node_block(node, src_node)


@register("allgather")
class RingCurrentAllgather(_RingAllgatherBase):
    """DMA-staged baseline."""

    name = "allgather-ring-current"

    def setup(self) -> None:
        super().setup()
        # Every node distributes all N node blocks (including its own
        # staged one) to its peers through the DMA.
        self.distributor = DmaDirectPutDistributor(self, self.nnodes, "ag")

    def _on_node_block(self, node: int, src_node: int) -> None:
        self.distributor.arrive(node, *self.node_block_range(src_node))

    def _intra_node(self, ctx, master: int):
        rank, node = ctx.rank, ctx.node_index
        if rank == master:
            # Stage the node block: DMA gathers the peers' contributions.
            peers = self.machine.node_ranks(node)[1:]
            if peers:
                flows = [
                    ctx.dma.local_copy_flow(self.block_bytes, name="ag.gather")
                    for _ in peers
                ]
                yield AllOf(self.machine.engine, [f.event for f in flows])
            node_off, node_size = self.node_block_range(node)
            block = self.payload_slice(node_off, node_size)
            if block is not None:
                self.write_result(rank, node_off, block)
            self.distributor.received[rank].add(node_size)
            self.own_ready[node].trigger(None)
            # The staged node block is also distributed back to the peers.
            self.distributor.push(node, node_off, node_size)
        yield from self.distributor.wait_landed(ctx)


@register("allgather", shared_address=True)
class RingShaddrAllgather(_RingAllgatherBase):
    """Shared-address variant with message-counter publication."""

    name = "allgather-ring-shaddr"

    def setup(self) -> None:
        super().setup()
        # The master publishes every remote node block that lands in its
        # receive buffer; the peers copy it out.
        self.counters = CounterBroadcast(
            self, self.nnodes - 1, "ag.mbox", "ag.pub"
        )

    def _on_node_block(self, node: int, src_node: int) -> None:
        self.counters.arrive(node, *self.node_block_range(src_node))

    def _intra_node(self, ctx, master: int):
        machine = self.machine
        rank, node = ctx.rank, ctx.node_index
        if rank == master:
            tel = machine.engine.telemetry
            if tel is not None:
                tel.set_role(rank, node, ROLE_PROTOCOL)
            # No staging: the send flows read the peers' mapped buffers.
            # Map each peer's contribution once (cached across steps).
            for peer_local in range(1, machine.ppn):
                peer_rank = machine.node_ranks(node)[peer_local]
                yield from ctx.windows.map_buffer(
                    peer_local, ("ag-block", peer_rank), self.block_bytes
                )
            node_off, node_size = self.node_block_range(node)
            block = self.payload_slice(node_off, node_size)
            if block is not None:
                self.write_result(rank, node_off, block)
            self.own_ready[node].trigger(None)
            # Publish ring arrivals to the peers via the S/W counter.
            yield from self.counters.publish(node)
        else:
            # Copy the local node block pieces directly from the local
            # contributors (all buffers mapped), then chase the master's
            # published counter for remote node blocks.
            for peer_local in range(machine.ppn):
                if peer_local == ctx.local_rank:
                    continue
                peer_rank = machine.node_ranks(node)[peer_local]
                yield from ctx.windows.map_buffer(
                    peer_local, ("ag-block", peer_rank), self.block_bytes
                )
                yield from ctx.node.core_copy(
                    self.block_bytes, name="ag.local"
                )
                poff = peer_rank * self.block_bytes
                pdata = self.payload_slice(poff, self.block_bytes)
                if pdata is not None:
                    self.write_result(rank, poff, pdata)
            yield from self.counters.copy_out(
                ctx, ROLE_COPIER, "shaddr.copy-out", "ag.remote",
                (0, ("ag-recv", master), self.nbytes),
            )
