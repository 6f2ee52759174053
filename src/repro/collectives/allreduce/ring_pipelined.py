"""Ring allreduce for switched point-to-point fabrics.

Fat-tree and leaf-spine backends have no deposit-bit line broadcasts, so
the rectangle-schedule allreduce variants cannot run there.  This
algorithm keeps the paper's V-C pipeline structure — a multi-color ring
reduction toward the root feeding a pipelined broadcast of the reduced
data — but rides plain ``ptp_send`` end to end:

1. **local gather + reduce** per node (the baseline scheme: DMA-staged
   copies of every peer's slice, then the cores sum the staged buffers);
2. :class:`~repro.collectives.allreduce.ring.RingReduce` per color over
   ``machine.network.ring_order`` — exactly the reduction the torus
   variants use, which is already point-to-point;
3. a chunked **ring broadcast** per color from the root (the
   ring-pipelined bcast scheme), fed chunk by chunk as the ring
   reduction produces results, with every arrived chunk DMA-direct-put
   into the node's peer buffers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.collectives.allreduce.base import DOUBLE, AllreduceInvocation
from repro.collectives.allreduce.ring import RingReduce, protocol_cores
from repro.collectives.common import DmaDirectPutDistributor
from repro.collectives.registry import register
from repro.msg.color import partition_bytes, torus_colors
from repro.msg.pipeline import ChunkPlan
from repro.sim.events import AllOf, Event
from repro.sim.sync import SimCounter
from repro.telemetry.recorder import ROLE_DMA_WAIT


@register("allreduce")
class RingPipelinedAllreduce(AllreduceInvocation):
    """Multi-color ring reduction + pipelined ring broadcast (any backend)."""

    name = "allreduce-ring-pipelined"
    network = "ptp"
    ncolors = 3

    def setup(self) -> None:
        machine = self.machine
        engine = machine.engine
        chunk = machine.params.pipeline_width
        self.colors = torus_colors(self.ncolors)
        self.parts = partition_bytes(self.nbytes, self.ncolors, align=DOUBLE)
        self.offsets = [sum(self.parts[:i]) for i in range(self.ncolors)]
        self.plans: List[ChunkPlan] = [
            ChunkPlan.build(self.parts[c], chunk)
            for c in range(self.ncolors)
        ]
        root_node = machine.rank_to_node(self.root)
        self.root_node = root_node
        self.start = Event(engine)
        # One protocol-core resource per node: the master core performs
        # every ring addition (baseline scheme, as in the torus variants).
        self.proto_cores = protocol_cores(machine, self.name)
        self.contrib_ready: List[List[SimCounter]] = [
            [
                SimCounter(engine, name=f"c{c}.n{n}.contrib")
                for n in range(machine.nnodes)
            ]
            for c in range(self.ncolors)
        ]
        self.rank_received: Dict[int, SimCounter] = {
            rank: SimCounter(engine, name=f"r{rank}.result")
            for rank in range(machine.nprocs)
        }
        self.distributor = DmaDirectPutDistributor(
            self, sum(plan.nchunks for plan in self.plans),
            self._peer_landed,
        )
        #: per-color broadcast ring (position 0 is the root's node)
        self.rings_order: List[List[int]] = [
            machine.network.ring_order(color, root_node)
            for color in self.colors
        ]
        #: reduced chunk k of color c is staged at the root
        self._bc_ready: Dict[Tuple[int, int], Event] = {}
        #: (color, ring position, chunk) fully arrived at that position
        self._bc_arrive: Dict[Tuple[int, int, int], Event] = {}
        #: next chunk index the ring reduction will deliver, per color
        self._next_chunk = [0] * self.ncolors
        self.rings: List[RingReduce] = []
        for c, color in enumerate(self.colors):
            if self.parts[c] == 0:
                continue
            nchunks = self.plans[c].nchunks
            ring = self.rings_order[c]
            for k in range(nchunks):
                self._bc_ready[(c, k)] = Event(engine)
                for i in range(1, len(ring)):
                    self._bc_arrive[(c, i, k)] = Event(engine)
            for node in range(machine.nnodes):
                machine.spawn(
                    self._local_prepare(c, node, self.parts[c], chunk),
                    name=f"lprep.c{c}.n{node}",
                )
            self.rings.append(
                RingReduce(
                    self,
                    color,
                    ring,
                    self.offsets[c],
                    self.parts[c],
                    chunk,
                    self.contrib_ready[c],
                    self.proto_cores,
                    self.start,
                    lambda goff, size, c=c: self._root_ready(c, goff, size),
                )
            )
            for i in range(len(ring) - 1):
                machine.spawn(
                    self._bcast_position(c, i), name=f"rarb.c{c}.p{i}"
                )

    # -- stage 1: DMA gather + parallel local reduce ------------------------
    def _local_prepare(self, c: int, node: int, part_bytes: int, chunk: int):
        machine = self.machine
        dma = machine.dma[node]
        node_obj = machine.nodes[node]
        ppn = machine.ppn
        yield self.start
        plan = ChunkPlan.build(part_bytes, chunk)
        for _k, _off, size in plan.slices():
            if ppn > 1:
                gathers = [
                    dma.local_copy_flow(size, name=f"gather.c{c}")
                    for _ in range(ppn - 1)
                ]
                yield AllOf(machine.engine, [f.event for f in gathers])
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

    # -- stage 2 -> 3 handoff ------------------------------------------------
    def _root_ready(self, c: int, goff: int, size: int) -> None:
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
        self.rank_received[master].add(size)
        self.distributor.push(node, goff, size)

    def _peer_landed(self, peer: int, goff: int, size: int) -> None:
        data = self.payload_slice(goff, size)
        if data is not None:
            self.write_result(peer, goff, data)
        self.rank_received[peer].add(size)

    # -- per-rank coroutine ---------------------------------------------------
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
            self.start.trigger(None)
        t0 = engine.now
        yield self.rank_received[rank].wait_for(self.nbytes)
        if tel is not None:
            tel.stall(t0, engine.now, rank, ctx.node_index,
                      "waiting-on-counter")
        yield engine.timeout(params.dma_counter_poll)
