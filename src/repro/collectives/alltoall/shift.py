"""Node-level shift alltoall: DMA-staged vs shared-address variants.

Round structure: for ``s = 1 .. N-1``, node ``i`` sends the block-set
destined for node ``(i + s) mod N``.  All nodes send concurrently with
distinct destinations, so rounds use disjoint node pairs; the torus routes
them dimension-ordered and the flow network charges any link sharing
honestly.  Rounds are pipelined per node — a node starts round ``s+1`` as
soon as its round-``s`` injection completes.

The intra-node stages are the paper's contrast:

* staging the *outgoing* node set (gathering the four local ranks' blocks
  for one destination node) — DMA copies vs in-place mapped reads;
* distributing each *arriving* set's sub-blocks to the local ranks — DMA
  direct puts vs counter-published direct core copies.
"""

from __future__ import annotations

from typing import Dict

from repro.collectives.alltoall.base import AlltoallInvocation
from repro.collectives.registry import register
from repro.msg.color import torus_colors
from repro.sim.events import AllOf, Event
from repro.sim.sync import SimCounter


class _ShiftAlltoallBase(AlltoallInvocation):
    """Common shift-round machinery."""

    network = "ptp"

    def setup(self) -> None:
        machine = self.machine
        engine = machine.engine
        self.nnodes = machine.nnodes
        self.color = torus_colors(1)[0]
        self.start = Event(engine)
        #: per-rank: number of source blocks present in the rank's buffer
        self.rank_blocks: Dict[int, SimCounter] = {
            rank: SimCounter(engine, name=f"r{rank}.a2a")
            for rank in range(machine.nprocs)
        }
        for node in range(self.nnodes):
            machine.spawn(self._node_engine(node), name=f"a2a.n{node}")

    # -- hooks ----------------------------------------------------------
    def _stage_outgoing(self, node: int, dst_node: int):
        """Sub-generator: make the node set for ``dst_node`` sendable."""
        raise NotImplementedError

    def _distribute_arrival(self, node: int, src_node: int):
        """Sub-generator: hand an arrived node set to the local ranks."""
        raise NotImplementedError

    # -- the shift rounds ----------------------------------------------------
    def _node_engine(self, node: int):
        yield self.start
        machine = self.machine
        engine = machine.engine
        set_bytes = self.node_set_bytes()
        if set_bytes == 0:
            return
        # Local (same-node) exchange first: handled as an "arrival" from
        # ourselves so the variant's distribution stage applies.
        yield from self._stage_outgoing(node, node)
        yield from self._distribute_arrival(node, node)
        for s in range(1, self.nnodes):
            dst_node = (node + s) % self.nnodes
            yield from self._stage_outgoing(node, dst_node)
            yield engine.timeout(machine.params.dma_startup)
            delivered = machine.network.ptp_send(
                self.color.id, node, dst_node, set_bytes,
                name=f"a2a.n{node}.s{s}",
            )
            arrival_handler = self._arrival_process(dst_node, node)
            delivered.on_trigger(
                lambda _v, handler=arrival_handler, dst=dst_node:
                self.machine.spawn(handler, name=f"a2a.arr.n{dst}")
            )
            # In-order injection per node; rounds pipeline across nodes.
            yield delivered

    def _arrival_process(self, node: int, src_node: int):
        yield from self._distribute_arrival(node, src_node)

    # -- per-rank coroutine --------------------------------------------------
    def proc(self, rank: int):
        ctx = self.context(rank)
        machine = self.machine
        params = machine.params
        engine = machine.engine
        if self.block_bytes == 0 or machine.nprocs == 1:
            if self.carry_data and machine.nprocs == 1:
                self.deliver(rank, rank)
            return
        yield engine.timeout(params.mpi_overhead)
        if rank == 0:
            self.start.trigger(None)
        yield self.rank_blocks[rank].wait_for(machine.nprocs)
        yield engine.timeout(params.dma_counter_poll)

    # -- shared accounting ---------------------------------------------------
    def _mark_delivered(self, src_node: int, dst_node: int) -> None:
        self.deliver_node_set(src_node, dst_node)
        ppn = self.machine.ppn
        for dst_rank in self.machine.node_ranks(dst_node):
            self.rank_blocks[dst_rank].add(ppn)


@register("alltoall")
class ShiftCurrentAlltoall(_ShiftAlltoallBase):
    """Baseline: DMA stages outgoing sets and direct-puts arrivals."""

    name = "alltoall-shift-current"

    def _stage_outgoing(self, node: int, dst_node: int):
        machine = self.machine
        ppn = machine.ppn
        if ppn > 1:
            # DMA copies each local peer's ppn destination blocks into the
            # master's staging buffer.
            dma = machine.dma[node]
            flows = [
                dma.local_copy_flow(
                    ppn * self.block_bytes, name="a2a.stage"
                )
                for _ in range(ppn - 1)
            ]
            yield AllOf(machine.engine, [f.event for f in flows])

    def _distribute_arrival(self, node: int, src_node: int):
        machine = self.machine
        ppn = machine.ppn
        if ppn > 1:
            dma = machine.dma[node]
            flows = [
                dma.local_copy_flow(
                    ppn * self.block_bytes, name="a2a.dput"
                )
                for _ in range(ppn - 1)
            ]
            yield AllOf(machine.engine, [f.event for f in flows])
        yield machine.engine.timeout(machine.params.dma_counter_poll)
        self._mark_delivered(src_node, node)


@register("alltoall", shared_address=True)
class ShiftShaddrAlltoall(_ShiftAlltoallBase):
    """Proposed: mapped in-place reads out, counter-published copies in."""

    name = "alltoall-shift-shaddr"

    def setup(self) -> None:
        super().setup()
        self._mapped: set = set()

    def _stage_outgoing(self, node: int, dst_node: int):
        # No staging: sends read the local ranks' mapped buffers in place.
        # Charge the mapping system calls once per peer buffer.
        machine = self.machine
        if machine.ppn > 1 and node not in self._mapped:
            self._mapped.add(node)
            yield machine.engine.timeout(
                2 * machine.params.syscall_cost * (machine.ppn - 1)
            )
        return
        yield  # pragma: no cover

    def _distribute_arrival(self, node: int, src_node: int):
        machine = self.machine
        engine = machine.engine
        params = machine.params
        ppn = machine.ppn
        # Master publishes the arrival; each peer core copies its own ppn
        # sub-blocks straight out of the receive buffer.  The copies run
        # concurrently on distinct cores: model as parallel core flows.
        yield engine.timeout(params.dma_counter_poll + params.flag_cost)
        if ppn > 1:
            node_obj = machine.nodes[node]
            flows = [
                machine.flownet.transfer(
                    {node_obj.mem: 2.0},
                    ppn * self.block_bytes,
                    cap=node_obj.regime.core_copy_cap,
                    name="a2a.copy",
                )
                for _ in range(ppn - 1)
            ]
            yield AllOf(engine, [f.event for f in flows])
        self._mark_delivered(src_node, node)
