"""Pipelined ring gather toward the root node.

The snake ring is traversed from the far end toward the root (ring
position 0): position ``i`` forwards, in order, its own node block followed
by every block relayed from position ``i+1``.  Transfers pipeline — while
position ``i`` forwards block ``k``, position ``i+1`` is already sending
block ``k+1`` — and the near-root links carry the aggregate, as in any
gather.

The variants differ only in how the node block becomes sendable:
DMA-staged (current) or read in place from mapped buffers (shaddr).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.collectives.gather.base import GatherInvocation
from repro.collectives.registry import register
from repro.msg.color import torus_colors
from repro.sim.events import AllOf, Event


class _RingGatherBase(GatherInvocation):
    """Common ring machinery for both gather variants."""

    network = "ptp"

    def setup(self) -> None:
        machine = self.machine
        engine = machine.engine
        self.color = torus_colors(1)[0]
        self.ring: List[int] = machine.network.ring_order(self.color, 0)
        self.nnodes = machine.nnodes
        self.start = Event(engine)
        self.own_ready: List[Event] = [
            Event(engine) for _ in range(self.nnodes)
        ]
        # arrival events at ring position i of relayed block number j
        # (j counts blocks arriving from downstream, 0-based)
        self._arrive: Dict[Tuple[int, int], Event] = {
            (i, j): Event(engine)
            for i in range(self.nnodes)
            for j in range(self.nnodes)
        }
        #: triggered when the root holds everything
        self.root_done = Event(engine)
        self._root_blocks_received = 0
        for position in range(self.nnodes):
            machine.spawn(self._ring_position(position), name=f"g.p{position}")

    def _ring_position(self, i: int):
        yield self.start
        machine = self.machine
        engine = machine.engine
        node = self.ring[i]
        block = self.block_bytes * machine.ppn
        if block == 0:
            if i == 0:
                self.root_done.trigger(None)
            return
        if i == 0:
            # The root: record its own node block, then collect the rest.
            yield self.own_ready[node]
            offset, size = self.node_block_range(node)
            data = self.payload_slice(offset, size)
            if data is not None:
                self.write_root(offset, data)
            self._root_blocks_received += 1
            if self._root_blocks_received == self.nnodes:
                self.root_done.trigger(None)
            return
        predecessor = self.ring[i - 1]
        # Forward own block first, then everything arriving from behind.
        blocks_to_forward = self.nnodes - i  # own + downstream ones
        for j in range(blocks_to_forward):
            if j == 0:
                yield self.own_ready[node]
                src_node = node
            else:
                yield self._arrive[(i, j - 1)]
                src_node = self.ring[i + j]
            yield engine.timeout(machine.params.dma_startup)
            delivered = machine.network.ptp_send(
                self.color.id, node, predecessor, block,
                name=f"g.p{i}.b{j}",
            )
            delivered.on_trigger(
                lambda _v, i=i, j=j, src_node=src_node:
                self._block_arrived(i - 1, j, src_node)
            )
            yield delivered

    def _block_arrived(self, position: int, j: int, src_node: int) -> None:
        self._arrive[(position, j)].trigger(None)
        if position == 0:
            offset, size = self.node_block_range(src_node)
            data = self.payload_slice(offset, size)
            if data is not None:
                self.write_root(offset, data)
            self._root_blocks_received += 1
            if self._root_blocks_received == self.nnodes:
                self.root_done.trigger(None)

    def proc(self, rank: int):
        ctx = self.context(rank)
        machine = self.machine
        params = machine.params
        engine = machine.engine
        if self.block_bytes == 0:
            return
        yield engine.timeout(params.mpi_overhead)
        node = ctx.node_index
        master = machine.node_ranks(node)[0]
        if rank == 0:
            self.start.trigger(None)
        if rank == master:
            yield from self._prepare_node_block(ctx)
            self.own_ready[node].trigger(None)
        if rank == 0:
            # The root returns once its receive buffer is complete.
            yield self.root_done
            yield engine.timeout(params.dma_counter_poll)
        # Non-root ranks return once their contribution is sendable
        # (standard MPI_Gather local-completion semantics).

    def _prepare_node_block(self, ctx):
        """Make the node's aggregated block sendable (variant-specific)."""
        raise NotImplementedError


@register("gather")
class RingCurrentGather(_RingGatherBase):
    """Baseline: DMA stages the peers' blocks before sending."""

    name = "gather-ring-current"

    def _prepare_node_block(self, ctx):
        machine = self.machine
        peers = machine.node_ranks(ctx.node_index)[1:]
        if peers:
            flows = [
                ctx.dma.local_copy_flow(self.block_bytes, name="g.stage")
                for _ in peers
            ]
            yield AllOf(machine.engine, [f.event for f in flows])


@register("gather", shared_address=True)
class RingShaddrGather(_RingGatherBase):
    """Proposed: send in place from mapped peer buffers (no staging)."""

    name = "gather-ring-shaddr"

    def _prepare_node_block(self, ctx):
        machine = self.machine
        node = ctx.node_index
        for peer_local in range(1, machine.ppn):
            peer_rank = machine.node_ranks(node)[peer_local]
            yield from ctx.windows.map_buffer(
                peer_local, ("gather-block", peer_rank), self.block_bytes
            )
