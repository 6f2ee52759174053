"""Collective-network broadcast, current quad-mode baselines (section V-B-1).

"In QUAD mode, the DMA moves the data among the cores of each node.  This
can occur using the memory FIFO and direct put DMA schemes."

Both variants share the tree stage: the node's local rank 0 drives the
collective network alone — injecting its contribution (data at the root,
zeros elsewhere) and draining the combined result with the *same* core, so
injection and reception serialize (the single-core half-throughput effect
the SMP algorithm avoids with its helper thread).

``tree-dma-fifo``
    The DMA delivers each received chunk into the three peers' reception
    memory FIFOs; each peer's core then copies the payload from its FIFO to
    the application buffer (one extra staging copy, plus FIFO bookkeeping).

``tree-dma-direct-put``
    The DMA direct-puts each chunk straight into the peers' application
    buffers (no staging copy, but all intra-node bytes still ride the DMA).
"""

from __future__ import annotations

from typing import Dict, List

from repro.collectives.base import BcastInvocation
from repro.collectives.registry import register
from repro.hardware.tree import TreeOperation
from repro.sim.events import Event
from repro.telemetry.recorder import ROLE_COPIER, ROLE_DMA_WAIT, ROLE_MASTER


class _TreeDmaBase(BcastInvocation):
    """Shared structure of the two DMA intra-node variants."""

    network = "tree"
    #: subclass knob: True = memory-FIFO delivery, False = direct put
    use_memory_fifo = True

    def setup(self) -> None:
        machine = self.machine
        params = machine.params
        self.op: TreeOperation = machine.tree.operation(
            self.nbytes, params.pipeline_width
        )
        engine = machine.engine
        # Per-rank: chunks landed in the rank's reception stage.
        self.chunk_landed: Dict[int, List[Event]] = {
            rank: [Event(engine) for _ in range(self.op.nchunks)]
            for rank in range(machine.nprocs)
        }

    def _master_rank(self, node: int) -> int:
        return self.machine.node_ranks(node)[0]

    def proc(self, rank: int):
        ctx = self.context(rank)
        machine = self.machine
        params = machine.params
        engine = machine.engine
        yield engine.timeout(params.mpi_overhead)
        node = ctx.node_index
        master = self._master_rank(node)
        peers = [r for r in machine.node_ranks(node) if r != master]
        tel = engine.telemetry
        if tel is not None:
            if rank == master:
                tel.set_role(rank, node, ROLE_MASTER)
            else:
                tel.set_role(
                    rank, node,
                    ROLE_COPIER if self.use_memory_fifo else ROLE_DMA_WAIT,
                )
        if rank == master:
            yield engine.timeout(params.tree_inject_startup)
            offset = 0
            for k in range(self.op.nchunks):
                size = self.op.chunks[k]
                # One core drives the tree: inject, then drain, serially.
                yield from self.op.inject(node, k)
                yield from self.op.receive(node, k)
                if rank != self.root:
                    data = self.payload_slice(offset, size)
                    if data is not None:
                        self.write_result(rank, offset, data)
                # Hand the chunk to the DMA for intra-node distribution.
                yield from ctx.dma.post()
                for peer in peers:
                    if self.use_memory_fifo:
                        flow = ctx.dma.fifo_deliver_flow(size)
                    else:
                        flow = ctx.dma.local_copy_flow(size)
                    flow.event.on_trigger(
                        lambda _v, peer=peer, k=k:
                        self.chunk_landed[peer][k].trigger(None)
                    )
                offset += size
        else:
            offset = 0
            for k in range(self.op.nchunks):
                size = self.op.chunks[k]
                t0 = engine.now
                yield self.chunk_landed[rank][k]
                if tel is not None:
                    tel.stall(t0, engine.now, rank, node, "waiting-on-counter")
                if self.use_memory_fifo:
                    # Copy the payload out of the reception memory FIFO.
                    yield engine.timeout(params.dma_fifo_overhead)
                    t0 = engine.now
                    yield from ctx.node.fifo_copy(size, name="fifo-out")
                    if tel is not None:
                        tel.copied(t0, engine.now, rank, node, ROLE_COPIER,
                                   "fifo.copy-out", size)
                else:
                    # Direct put: data is already in place; observe counter.
                    yield engine.timeout(params.dma_counter_poll)
                data = self.payload_slice(offset, size)
                if data is not None:
                    self.write_result(rank, offset, data)
                offset += size


@register("bcast", modes=(2, 4))
class TreeDmaFifoBcast(_TreeDmaBase):
    """Current approach: DMA to reception memory FIFOs (+ core copy out)."""

    name = "tree-dma-fifo"
    use_memory_fifo = True


@register("bcast", modes=(2, 4))
class TreeDmaDirectPutBcast(_TreeDmaBase):
    """Current approach: DMA direct put into peers' application buffers."""

    name = "tree-dma-direct-put"
    use_memory_fifo = False
