"""Pipelined ring scatter from the root node.

Ring position 0 (the root node) sends node blocks outward in
farthest-destination-first order, so the stream pipelines: while position
1 forwards the block for position ``N-1``, the root is already injecting
the next one.  Each position keeps the final block addressed to it.

Intra-node delivery of a node block to the node's four ranks is the
variant-specific stage.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.collectives.common import wait_published
from repro.collectives.registry import register
from repro.collectives.scatter.base import ScatterInvocation
from repro.msg.color import torus_colors
from repro.sim.events import Event
from repro.sim.sync import SimCounter


class _RingScatterBase(ScatterInvocation):
    """Common ring machinery for both scatter variants."""

    network = "ptp"

    def setup(self) -> None:
        machine = self.machine
        engine = machine.engine
        self.color = torus_colors(1)[0]
        self.ring: List[int] = machine.network.ring_order(self.color, 0)
        self.nnodes = machine.nnodes
        self.start = Event(engine)
        # arrival at position i of the j-th block in the stream
        self._arrive: Dict[Tuple[int, int], Event] = {
            (i, j): Event(engine)
            for i in range(self.nnodes)
            for j in range(self.nnodes)
        }
        #: per-node: its own node block is locally available (at the master)
        self.node_block_here: List[Event] = [
            Event(engine) for _ in range(self.nnodes)
        ]
        #: per-rank: this rank's block is in its receive buffer
        self.rank_done: Dict[int, Event] = {
            rank: Event(engine) for rank in range(machine.nprocs)
        }
        for position in range(self.nnodes):
            machine.spawn(self._ring_position(position), name=f"s.p{position}")

    def _ring_position(self, i: int):
        yield self.start
        machine = self.machine
        engine = machine.engine
        node = self.ring[i]
        block = self.node_block_size()
        if block == 0:
            return
        if i == 0:
            # The root node's own block is immediately available.
            self.node_block_here[node].trigger(None)
            if self.nnodes == 1:
                return
            successor = self.ring[1]
            # Farthest destination first: positions N-1 down to 1.
            for j, dest in enumerate(range(self.nnodes - 1, 0, -1)):
                yield engine.timeout(machine.params.dma_startup)
                delivered = machine.network.ptp_send(
                    self.color.id, node, successor, block,
                    name=f"s.root.b{j}",
                )
                delivered.on_trigger(
                    lambda _v, j=j, dest=dest:
                    self._block_arrived(1, j, dest)
                )
                yield delivered
            return
        # Non-root positions: receive N-i blocks; the last one is ours.
        expected = self.nnodes - i
        successor = self.ring[i + 1] if i + 1 < self.nnodes else None
        forwarded = 0
        for j in range(expected):
            yield self._arrive[(i, j)]
            dest = self.nnodes - 1 - j  # stream order is farthest-first
            if dest == i:
                self.node_block_here[node].trigger(None)
                continue
            yield engine.timeout(machine.params.dma_startup)
            delivered = machine.network.ptp_send(
                self.color.id, node, successor, block,
                name=f"s.p{i}.b{forwarded}",
            )
            delivered.on_trigger(
                lambda _v, i=i, forwarded=forwarded, dest=dest:
                self._block_arrived(i + 1, forwarded, dest)
            )
            forwarded += 1
            yield delivered

    def _block_arrived(self, position: int, j: int, dest: int) -> None:
        self._arrive[(position, j)].trigger(None)

    # -- intra-node stage (variant-specific) --------------------------------
    def proc(self, rank: int):
        raise NotImplementedError


@register("scatter")
class RingCurrentScatter(_RingScatterBase):
    """Baseline: the DMA direct-puts each peer's sub-block."""

    name = "scatter-ring-current"

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
            yield self.node_block_here[node]
            # The master's own block is already in place.
            self.deliver(rank)
            peers = machine.node_ranks(node)[1:]
            if peers:
                yield from ctx.dma.post()
                for peer in peers:
                    flow = ctx.dma.local_copy_flow(
                        self.block_bytes, name=f"s.dput.r{peer}"
                    )
                    flow.event.on_trigger(
                        lambda _v, peer=peer: self._peer_landed(peer)
                    )
        else:
            yield self.rank_done[rank]
            yield engine.timeout(params.dma_counter_poll)

    def _peer_landed(self, peer: int) -> None:
        self.deliver(peer)
        self.rank_done[peer].trigger(None)


@register("scatter", shared_address=True)
class RingShaddrScatter(_RingScatterBase):
    """Proposed: peers copy their sub-block from the master's mapped buffer."""

    name = "scatter-ring-shaddr"

    def setup(self) -> None:
        super().setup()
        self.published: List[SimCounter] = [
            self.machine.make_counter(name=f"n{n}.s.pub", node=n)
            for n in range(self.machine.nnodes)
        ]

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
            yield self.node_block_here[node]
            self.deliver(rank)
            # Publish the arrival through the software counter.
            yield engine.timeout(params.dma_counter_poll + params.flag_cost)
            self.published[node].add(1)
        else:
            yield from wait_published(ctx, self.published[node], 1)
            yield from ctx.windows.map_buffer(
                0, ("scatter-buf", master), self.node_block_size()
            )
            yield from ctx.node.core_copy(self.block_bytes, name="s.copy")
            self.deliver(rank)
