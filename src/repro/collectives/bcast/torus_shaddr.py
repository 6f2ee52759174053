"""Torus broadcast, proposed: ``Torus + Shaddr`` (sections IV-C, V-A-2, Fig 3).

"Shared Address Broadcast using Message Counters: ... receive the broadcast
data from the network in one of the processes application data buffer.  We
designate this process as the master process.  The master after receiving
the network data notifies other processes about the arrival of data.  The
arrived data is copied out directly from the application buffer of the
master process ... by using the System Memory Map calls."

Mechanics modelled here, following Fig 3:

* the master mirrors the DMA byte counters into software counters — one
  observation (poll + flag write) per arrived chunk;
* each peer maintains a local counter, watches the shared one, and copies
  newly arrived bytes straight out of the master's mapped buffer (a single
  core copy per byte — no staging);
* an atomic completion counter, incremented by each peer when done, returns
  buffer ownership to the master ("once this counter equals n-1 ... the
  master can go ahead and start using his buffer");
* peers pay the two map system calls per master buffer on first use; the
  window cache makes repeats free (Fig 8 measures exactly this knob via
  ``window_caching=False``).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.collectives.base import BcastInvocation
from repro.collectives.bcast.torus_common import TorusBcastNetwork
from repro.collectives.registry import register
from repro.sim.resources import Store
from repro.sim.sync import SimCounter
from repro.telemetry.recorder import ROLE_COPIER, ROLE_PROTOCOL


@register("bcast", shared_address=True)
class TorusShaddrBcast(BcastInvocation):
    """Quad-mode broadcast over shared address space + message counters."""

    name = "torus-shaddr"
    network = "torus"
    ncolors = 6

    def setup(self) -> None:
        machine = self.machine
        engine = machine.engine
        self.net = TorusBcastNetwork(
            self, self.ncolors, machine.params.pipeline_width
        )
        nnodes = machine.nnodes
        # Software message counters: per node, the published chunk count and
        # the arrival records peers read (offset, size per chunk index).
        self.sw_published: List[SimCounter] = [
            machine.make_counter(name=f"n{n}.swcnt", node=n)
            for n in range(nnodes)
        ]
        self.arrived: List[List[Tuple[int, int]]] = [[] for _ in range(nnodes)]
        # Master-side mailboxes carrying raw DMA-counter observations.
        self.mailbox: List[Store] = [
            Store(engine, name=f"n{n}.mbox") for n in range(nnodes)
        ]
        # Completion counters (peers -> master buffer ownership).
        self.completion: List[SimCounter] = [
            machine.make_counter(name=f"n{n}.done", node=n)
            for n in range(nnodes)
        ]
        self.net.on_chunk(
            lambda node, _c, goff, size: self.mailbox[node].put((goff, size))
        )

    def _master_rank(self, node: int) -> int:
        if node == self.machine.rank_to_node(self.root):
            return self.root
        return self.machine.node_ranks(node)[0]

    def proc(self, rank: int):
        ctx = self.context(rank)
        machine = self.machine
        params = machine.params
        engine = machine.engine
        if self.nbytes == 0:
            return
        yield engine.timeout(params.mpi_overhead)
        node = ctx.node_index
        if rank == self.root:
            self.net.open()
        if machine.ppn == 1:
            yield self.net.node_received[node].wait_for(self.nbytes)
            return
        master = self._master_rank(node)
        npeers = machine.ppn - 1
        tel = engine.telemetry
        if rank == master:
            # Master: mirror the DMA counters into the shared S/W counter.
            if tel is not None:
                tel.set_role(rank, node, ROLE_PROTOCOL)
            total_chunks = self.net.total_chunks_per_node
            for _ in range(total_chunks):
                goff, size = yield self.mailbox[node].get()
                # Poll the DMA counter, then publish to the S/W counter.
                yield engine.timeout(
                    params.dma_counter_poll + params.flag_cost
                )
                self.arrived[node].append((goff, size))
                self.sw_published[node].add(1)
            # Wait for the completion counter before reusing the buffer.
            t0 = engine.now
            yield self.completion[node].wait_for(npeers)
            if tel is not None:
                tel.stall(t0, engine.now, rank, node, "waiting-on-counter")
        else:
            # Peer: chase the software counter, copying directly out of the
            # master's mapped application buffer.  The buffer is mapped at
            # every access — two system calls each time unless the window
            # service caches the mapping (the Fig-8 knob).
            if tel is not None:
                tel.set_role(rank, node, ROLE_COPIER)
            master_local = machine.rank_to_local(master)
            total_chunks = self.net.total_chunks_per_node
            for i in range(total_chunks):
                if self.sw_published[node].value < i + 1:
                    t0 = engine.now
                    yield self.sw_published[node].wait_for(i + 1)
                    if tel is not None:
                        tel.stall(t0, engine.now, rank, node,
                                  "waiting-on-counter")
                    # Observation latency of the peer's local poll loop.
                    yield engine.timeout(params.flag_cost)
                goff, size = self.arrived[node][i]
                yield from ctx.windows.map_buffer(
                    master_local, ("bcast-buf", master), self.nbytes
                )
                t0 = engine.now
                yield from ctx.node.core_copy(size, name=f"shaddr.r{rank}")
                if tel is not None:
                    tel.copied(t0, engine.now, rank, node, ROLE_COPIER,
                               "shaddr.copy-out", size)
                data = self.payload_slice(goff, size)
                if data is not None:
                    self.write_result(rank, goff, data)
            # Signal the completion counter (atomic increment).
            yield engine.timeout(params.atomic_op_cost)
            self.completion[node].add(1)
