"""Torus broadcast, proposed: ``Torus + FIFO`` (sections IV-B, V-A-2).

"Shared Memory Broadcast using Bcast FIFO: ... once a chunk of data is
received from the Torus network into the application buffer, the master
process enqueues the data element into the Bcast FIFO ... The data is
packetized if it is more than the FIFO slot size.  Apart from the actual
data, metadata information associated with the data is also copied into the
same FIFO slot.  The metadata includes the number of data bytes copied into
the slot and the connection id of the global broadcast flow.  In this
fashion broadcast streams from multiple connections can be multiplexed into
the same FIFO."

Intra-node movement is done by the *cores* (staging copies through the
FIFO), freeing the DMA for the network — "concurrent data transfers
intra-node by the processing cores and the DMA moving the data from the
node to the Torus network" — at the price of funnelling every byte through
the master core's staging copy, which runs at the cache-coherence-limited
FIFO copy rate.

Simulation granularity: the FIFO operates at slot granularity (default
8 KB); for efficiency the simulation issues one staging-copy flow per
network pipeline chunk and charges the per-slot bookkeeping (fetch-and-
increment on Tail, consumer-counter initialisation, completion flag) as an
aggregate cost for the slots the chunk packetizes into.  This module is
the simulator's only Bcast FIFO; the slot-level algorithm lives in the
thread-executable :class:`repro.structures.bcast_fifo.BcastFifo`.  The
full-FIFO path (the master waiting for the last reader to retire a slot)
is checked by ``TestBcastFifoBackpressure`` in
``tests/test_collectives_bcast.py``.
"""

from __future__ import annotations

from typing import List

from repro.collectives.base import BcastInvocation
from repro.collectives.bcast.torus_common import TorusBcastNetwork
from repro.collectives.registry import register
from repro.msg.pipeline import split_chunks
from repro.sim.resources import Store
from repro.sim.sync import SimCounter
from repro.telemetry.recorder import ROLE_COPIER, ROLE_PROTOCOL


@register("bcast")
class TorusFifoBcast(BcastInvocation):
    """Quad-mode broadcast with the concurrent Bcast FIFO intra-node."""

    name = "torus-fifo"
    network = "torus"
    ncolors = 6

    def setup(self) -> None:
        machine = self.machine
        params = machine.params
        engine = machine.engine
        self.net = TorusBcastNetwork(self, self.ncolors, params.pipeline_width)
        # Arrival mailboxes feeding each node's master enqueue loop.
        self.arrivals: List[Store] = [
            Store(engine, name=f"n{n}.arrivals")
            for n in range(machine.nnodes)
        ]
        # The FIFO modelled at chunk granularity: elements visible / retired
        # (visible to consumers after the staging copy completes).
        self.visible: List[SimCounter] = [
            machine.make_counter(name=f"n{n}.fifo.tail", node=n)
            for n in range(machine.nnodes)
        ]
        self.retired: List[SimCounter] = [
            machine.make_counter(name=f"n{n}.fifo.head", node=n)
            for n in range(machine.nnodes)
        ]
        self.elements: List[list] = [[] for _ in range(machine.nnodes)]
        self.readers_left: List[List[int]] = [[] for _ in range(machine.nnodes)]
        #: FIFO capacity in elements (chunk granularity): total staging bytes
        #: divided by the chunk size, at least 1.
        capacity_bytes = params.fifo_slots * params.fifo_slot_bytes
        self.capacity = max(1, capacity_bytes // params.pipeline_width)
        self.net.on_chunk(self._on_arrival)

    def _on_arrival(self, node: int, color_id: int, goff: int, size: int) -> None:
        self.arrivals[node].put((color_id, goff, size))

    def _slot_costs(self, size: int) -> float:
        """Aggregate per-slot bookkeeping for one packetized chunk."""
        params = self.machine.params
        pieces = len(split_chunks(size, params.fifo_slot_bytes))
        per_slot = (
            params.atomic_op_cost  # fetch-and-increment on Tail
            + params.atomic_op_cost  # consumer-counter initialisation
            + params.flag_cost  # write-completion step
            + params.shmem_chunk_overhead
        )
        return pieces * per_slot

    def proc(self, rank: int):
        ctx = self.context(rank)
        machine = self.machine
        params = machine.params
        engine = machine.engine
        if self.nbytes == 0:
            return
        yield engine.timeout(params.mpi_overhead)
        node = ctx.node_index
        root_node = machine.rank_to_node(self.root)
        is_master = rank == self.root or (
            ctx.local_rank == 0 and node != root_node
        )
        if rank == self.root:
            self.net.open()
        if machine.ppn == 1:
            yield self.net.node_received[node].wait_for(self.nbytes)
            return
        nconsumers = machine.ppn - 1
        total_chunks = self.net.total_chunks_per_node
        tel = engine.telemetry
        if is_master:
            # Master loop: observe the DMA counter, packetize each arrived
            # chunk into FIFO slots (staging copy at the FIFO copy rate).
            if tel is not None:
                tel.set_role(rank, node, ROLE_PROTOCOL)
            for seq in range(total_chunks):
                color_id, goff, size = yield self.arrivals[node].get()
                yield engine.timeout(params.dma_counter_poll)
                # Space check: wait until the FIFO has room.
                contended = seq - self.retired[node].value >= self.capacity
                if tel is not None:
                    tel.fifo_fai(engine.now, f"n{node}.fifo", node, seq,
                                 contended)
                if contended:
                    t0 = engine.now
                    yield self.retired[node].wait_for(seq - self.capacity + 1)
                    if tel is not None:
                        tel.stall(t0, engine.now, rank, node,
                                  "waiting-on-slot")
                yield engine.timeout(self._slot_costs(size))
                t0 = engine.now
                yield from ctx.node.fifo_copy(size, name="bfifo.in")
                if tel is not None:
                    tel.copied(t0, engine.now, rank, node, ROLE_PROTOCOL,
                               "fifo.stage-in", size)
                self.elements[node].append((color_id, goff, size))
                self.readers_left[node].append(nconsumers)
                self.visible[node].add(1)
                if tel is not None:
                    tel.fifo_depth(
                        engine.now, f"n{node}.fifo", node,
                        self.visible[node].value - self.retired[node].value,
                    )
        else:
            # Consumer loop: read every multiplexed element in order.
            if tel is not None:
                tel.set_role(rank, node, ROLE_COPIER)
            for seq in range(total_chunks):
                if self.visible[node].value < seq + 1:
                    t0 = engine.now
                    yield self.visible[node].wait_for(seq + 1)
                    if tel is not None:
                        tel.stall(t0, engine.now, rank, node,
                                  "waiting-on-counter")
                _color_id, goff, size = self.elements[node][seq]
                yield engine.timeout(params.atomic_op_cost)
                t0 = engine.now
                yield from ctx.node.fifo_copy(size, name="bfifo.out")
                if tel is not None:
                    tel.copied(t0, engine.now, rank, node, ROLE_COPIER,
                               "fifo.copy-out", size)
                data = self.payload_slice(goff, size)
                if data is not None:
                    self.write_result(rank, goff, data)
                # Decrement the slot counter; last reader retires.
                self.readers_left[node][seq] -= 1
                if self.readers_left[node][seq] == 0:
                    yield engine.timeout(params.atomic_op_cost)
                    self.retired[node].add(1)
