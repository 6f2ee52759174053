"""Allreduce over the torus, current approach (section V-C-1).

"The basic idea in the algorithm used is to pipeline the reduction and
broadcast phases of the allreduce.  A ring algorithm is used in the
reduction followed by the broadcast of the reduced data from the assigned
root process. ... This scheme is not optimal as redundant copies of data
are transferred by the DMA for the reduction operation.  Also, the DMA
cannot keep pace with both the inter- and intra-node data transfers."

Concretely, per color partition:

1. **local gather + reduce** — the DMA copies the three peers' partitions
   into the master's staging area (the "redundant copies"), then the master
   core sums the four buffers;
2. **ring reduction** across nodes (master core does every addition);
3. **pipelined broadcast** of the reduced partition over the same color
   route, with the DMA direct-putting every arrived chunk into the three
   peer buffers (the intra-node "fourth dimension" again).

Everything except the cores' additions rides the DMA, so the engine is the
bottleneck — the "Current (MB/s)" column of Table I.
"""

from __future__ import annotations

from typing import Dict, List

from repro.collectives.allreduce.base import DOUBLE, AllreduceInvocation
from repro.collectives.allreduce.ring import RingReduce, protocol_cores
from repro.collectives.bcast.torus_common import TorusBcastNetwork
from repro.collectives.common import DmaDirectPutDistributor
from repro.collectives.registry import register
from repro.msg.color import partition_bytes, torus_colors
from repro.msg.pipeline import ChunkPlan
from repro.sim.events import AllOf
from repro.sim.sync import SimCounter
from repro.telemetry.recorder import ROLE_DMA_WAIT


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
        engine = machine.engine
        params = machine.params
        chunk = params.pipeline_width
        self.net = TorusBcastNetwork(
            self, self.ncolors, chunk, external_root_feed=True, align=DOUBLE
        )
        self.colors = torus_colors(self.ncolors)
        parts = partition_bytes(self.nbytes, self.ncolors, align=DOUBLE)
        offsets = [sum(parts[:i]) for i in range(self.ncolors)]
        root_node = machine.rank_to_node(self.root)
        # One protocol-core resource per node: the master core that performs
        # every reduction in this scheme.
        self.proto_cores = protocol_cores(machine, self.name)
        # Per (color, node): bytes of the locally reduced contribution ready.
        self.contrib_ready: List[List[SimCounter]] = [
            [
                SimCounter(engine, name=f"c{c}.n{n}.contrib")
                for n in range(machine.nnodes)
            ]
            for c in range(self.ncolors)
        ]
        # Per-rank bytes of the final result landed in the rank's buffer.
        self.rank_received: Dict[int, SimCounter] = {
            rank: SimCounter(engine, name=f"r{rank}.result")
            for rank in range(machine.nprocs)
        }
        self.distributor = DmaDirectPutDistributor(
            self, self.net.total_chunks_per_node, self._peer_landed
        )
        self.net.on_chunk(self._distribute)
        self.rings: List[RingReduce] = []
        for c, color in enumerate(self.colors):
            if parts[c] == 0:
                continue
            for node in range(machine.nnodes):
                machine.spawn(
                    self._local_prepare(c, node, parts[c], chunk),
                    name=f"lprep.c{c}.n{node}",
                )
            self.rings.append(
                RingReduce(
                    self,
                    color,
                    machine.network.ring_order(color, root_node),
                    offsets[c],
                    parts[c],
                    chunk,
                    self.contrib_ready[c],
                    self.proto_cores,
                    self.net.start,
                    lambda goff, size, c=c: self._root_ready(c, goff, size),
                )
            )

    # -- stage 1: DMA gather (the "redundant copies") + parallel reduce -----
    def _local_prepare(self, c: int, node: int, part_bytes: int, chunk: int):
        """Before the ring, the DMA copies every peer process's slice into
        the master's staging area — "redundant copies of data are
        transferred by the DMA for the reduction operation" — after which
        the local cores sum the staged buffers in parallel shares."""
        machine = self.machine
        dma = machine.dma[node]
        node_obj = machine.nodes[node]
        ppn = machine.ppn
        yield self.net.start
        plan = ChunkPlan.build(part_bytes, chunk)
        for _k, _off, size in plan.slices():
            if ppn > 1:
                # Redundant DMA copies of every peer's slice into staging.
                gathers = [
                    dma.local_copy_flow(size, name=f"gather.c{c}")
                    for _ in range(ppn - 1)
                ]
                yield AllOf(machine.engine, [f.event for f in gathers])
                # The local cores reduce 1/ppn shares of the staged buffers.
                share = (size + ppn - 1) // ppn
                flows = [
                    machine.flownet.transfer(
                        {node_obj.mem: float(ppn + 1)},
                        share,
                        cap=node_obj.regime.core_reduce_cap,
                        name=f"lred.c{c}.n{node}",
                    )
                    for _ in range(ppn)
                ]
                yield AllOf(machine.engine, [f.event for f in flows])
            self.contrib_ready[c][node].add(size)

    # -- stage 2 -> 3 handoff -----------------------------------------------
    def _root_ready(self, c: int, goff: int, size: int) -> None:
        """Ring delivered a reduced chunk at the root: feed the broadcast."""
        master = self.machine.node_ranks(
            self.machine.rank_to_node(self.root)
        )[0]
        data = self.payload_slice(goff, size)
        if data is not None:
            self.write_result(master, goff, data)
        self.net.feed_root(self.colors[c].id, size)

    # -- stage 3 intra-node: DMA direct put ------------------------------
    def _distribute(self, node: int, color_id: int, goff: int, size: int
                    ) -> None:
        master = self.machine.node_ranks(node)[0]
        self.rank_received[master].add(size)
        self.distributor.push(node, goff, size)

    def _peer_landed(self, peer: int, goff: int, size: int) -> None:
        data = self.payload_slice(goff, size)
        if data is not None:
            self.write_result(peer, goff, data)
        self.rank_received[peer].add(size)

    # -- per-rank coroutine --------------------------------------------------
    def proc(self, rank: int):
        ctx = self.context(rank)
        machine = self.machine
        params = machine.params
        engine = machine.engine
        if self.count == 0:
            return
        yield engine.timeout(params.mpi_overhead)
        tel = engine.telemetry
        if tel is not None:
            tel.set_role(rank, ctx.node_index, ROLE_DMA_WAIT)
        if rank == self.root:
            self.net.open()
        t0 = engine.now
        yield self.rank_received[rank].wait_for(self.nbytes)
        if tel is not None:
            tel.stall(t0, engine.now, rank, ctx.node_index,
                      "waiting-on-counter")
        yield engine.timeout(params.dma_counter_poll)
