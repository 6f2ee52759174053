"""Reduce-to-root over the torus: current vs shared-address variants.

Both reuse :class:`repro.collectives.allreduce.ring.RingReduce` (the
multi-color pipelined ring toward the root); they differ in how each node's
contribution is produced — exactly the §V-C contrast, minus the broadcast
stage.
"""

from __future__ import annotations

from typing import List

from repro.collectives.allreduce.ring import RingReduce, protocol_cores
from repro.collectives.reduce.base import DOUBLE, ReduceInvocation
from repro.collectives.registry import register
from repro.msg.color import partition_bytes, torus_colors
from repro.msg.pipeline import ChunkPlan
from repro.sim.events import AllOf, Event
from repro.sim.sync import SimCounter


class _TorusReduceBase(ReduceInvocation):
    """Shared ring + bookkeeping for both reduce variants."""

    network = "ptp"
    ncolors = 3

    def setup(self) -> None:
        machine = self.machine
        engine = machine.engine
        params = machine.params
        chunk = params.pipeline_width
        self.colors = torus_colors(self.ncolors)
        self.parts = partition_bytes(self.nbytes, self.ncolors, align=DOUBLE)
        self.offsets = [sum(self.parts[:i]) for i in range(self.ncolors)]
        self.start = Event(engine)
        self.proto_cores = protocol_cores(machine, self.name)
        self.contrib_ready: List[List[SimCounter]] = [
            [
                SimCounter(engine, name=f"c{c}.n{n}.contrib")
                for n in range(machine.nnodes)
            ]
            for c in range(self.ncolors)
        ]
        #: bytes of the final result landed at the root
        self.root_received = SimCounter(engine, name="root.result")
        root_node = machine.rank_to_node(self.root)
        self.rings: List[RingReduce] = []
        for c, color in enumerate(self.colors):
            if self.parts[c] == 0:
                continue
            self.rings.append(
                RingReduce(
                    self,
                    color,
                    machine.network.ring_order(color, root_node),
                    self.offsets[c],
                    self.parts[c],
                    chunk,
                    self.contrib_ready[c],
                    self.proto_cores,
                    self.start,
                    self._root_chunk,
                    reception_extra=self._reception_extra(),
                )
            )
        self._spawn_services()

    # -- hooks for subclasses ---------------------------------------------
    def _reception_extra(self):
        """Per-hop reception work factory (None for direct put)."""
        return None

    def _spawn_services(self) -> None:
        """Spawn per-node contribution producers (variant-specific)."""
        raise NotImplementedError

    # -- common -------------------------------------------------------------
    def _root_chunk(self, goff: int, size: int) -> None:
        self.write_root_slice(goff, size)
        self.root_received.add(size)

    def proc(self, rank: int):
        ctx = self.context(rank)
        machine = self.machine
        params = machine.params
        engine = machine.engine
        if self.count == 0:
            return
        yield engine.timeout(params.mpi_overhead)
        if rank == self.root:
            self.start.trigger(None)
        yield from self._rank_work(ctx)
        if rank == self.root:
            yield self.root_received.wait_for(self.nbytes)
            yield engine.timeout(params.dma_counter_poll)
        else:
            # Local completion: the rank may return once its node's
            # contribution has been fully produced (buffers reusable).
            node = ctx.node_index
            for c in range(self.ncolors):
                if self.parts[c] == 0:
                    continue
                yield self.contrib_ready[c][node].wait_for(self.parts[c])

    def _rank_work(self, ctx):
        """Per-rank active duties before completion (variant-specific)."""
        return
        yield  # pragma: no cover


@register("reduce")
class TorusCurrentReduce(_TorusReduceBase):
    """Baseline: DMA-staged local reduction + memory-FIFO ring receptions."""

    name = "reduce-torus-current"

    def _reception_extra(self):
        machine = self.machine

        def reception(node: int, size: int):
            node_obj = machine.nodes[node]
            yield machine.engine.timeout(machine.params.dma_fifo_overhead)
            yield machine.flownet.transfer(
                {node_obj.mem: 2.0, self.proto_cores[node]: 1.0},
                size,
                cap=node_obj.regime.core_copy_cap,
                name=f"redfifo.n{node}",
            )

        return reception

    def _spawn_services(self) -> None:
        machine = self.machine
        for c in range(self.ncolors):
            if self.parts[c] == 0:
                continue
            for node in range(machine.nnodes):
                machine.spawn(
                    self._local_prepare(c, node),
                    name=f"rprep.c{c}.n{node}",
                )

    def _local_prepare(self, c: int, node: int):
        machine = self.machine
        dma = machine.dma[node]
        node_obj = machine.nodes[node]
        ppn = machine.ppn
        yield self.start
        plan = ChunkPlan.build(self.parts[c], machine.params.pipeline_width)
        for _k, _off, size in plan.slices():
            if ppn > 1:
                gathers = [
                    dma.local_copy_flow(size, name=f"rgather.c{c}")
                    for _ in range(ppn - 1)
                ]
                yield AllOf(machine.engine, [f.event for f in gathers])
                share = (size + ppn - 1) // ppn
                flows = [
                    machine.flownet.transfer(
                        {node_obj.mem: float(ppn + 1)},
                        share,
                        cap=node_obj.regime.core_reduce_cap,
                        name=f"rlred.c{c}.n{node}",
                    )
                    for _ in range(ppn)
                ]
                yield AllOf(machine.engine, [f.event for f in flows])
            self.contrib_ready[c][node].add(size)


@register("reduce", modes=(4,), shared_address=True)
class TorusShaddrReduce(_TorusReduceBase):
    """Proposed: worker cores reduce mapped buffers in place, one color each."""

    name = "reduce-torus-shaddr"

    def _spawn_services(self) -> None:
        # Contributions are produced by the worker ranks' own coroutines.
        pass

    def _rank_work(self, ctx):
        machine = self.machine
        params = machine.params
        engine = machine.engine
        local = ctx.local_rank
        if local == 0:
            return  # the protocol core's ring work is flow-charged
        c = local - 1
        if self.parts[c] == 0:
            return
        node = ctx.node_index
        plan = ChunkPlan.build(self.parts[c], params.pipeline_width)
        for _k, _off, size in plan.slices():
            for peer_local in range(machine.ppn):
                if peer_local != local:
                    peer_rank = machine.node_ranks(node)[peer_local]
                    yield from ctx.windows.map_buffer(
                        peer_local, ("reduce-buf", peer_rank), self.nbytes
                    )
            yield from ctx.node.core_reduce(size, machine.ppn,
                                            name=f"rlred.c{c}")
            yield engine.timeout(params.flag_cost)
            self.contrib_ready[c][node].add(size)
