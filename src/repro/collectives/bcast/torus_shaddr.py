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

from repro.collectives.base import BcastInvocation
from repro.collectives.bcast.torus_common import TorusBcastNetwork
from repro.collectives.common import CounterBroadcast
from repro.collectives.registry import register
from repro.telemetry.recorder import ROLE_COPIER, ROLE_PROTOCOL


@register("bcast", shared_address=True)
class TorusShaddrBcast(BcastInvocation):
    """Quad-mode broadcast over shared address space + message counters."""

    name = "torus-shaddr"
    network = "torus"
    ncolors = 6

    def setup(self) -> None:
        self.net = TorusBcastNetwork(
            self, self.ncolors, self.machine.params.pipeline_width
        )
        # The master publishes every chunk landed in its buffer on the
        # node's software counter; the peers copy it out.
        self.counters = CounterBroadcast(
            self, self.net.total_chunks_per_node, "mbox", "swcnt"
        )
        self.net.on_chunk(
            lambda node, _c, goff, size: self.counters.arrive(node, goff, size)
        )

    def _master_rank(self, node: int) -> int:
        if node == self.machine.rank_to_node(self.root):
            return self.root
        return self.machine.node_ranks(node)[0]

    def proc(self, rank: int):
        ctx = self.context(rank)
        machine = self.machine
        engine = machine.engine
        if self.nbytes == 0:
            return
        yield engine.timeout(machine.params.mpi_overhead)
        node = ctx.node_index
        if rank == self.root:
            self.net.open()
        if machine.ppn == 1:
            yield self.net.node_received[node].wait_for(self.nbytes)
            return
        master = self._master_rank(node)
        if rank == master:
            # Master: mirror the DMA counters into the shared S/W counter,
            # then wait for the completion counter before reusing the
            # buffer.
            tel = engine.telemetry
            if tel is not None:
                tel.set_role(rank, node, ROLE_PROTOCOL)
            yield from self.counters.publish(node)
            yield from self.counters.wait_released(rank, node)
        else:
            # Peer: chase the software counter, copying directly out of the
            # master's mapped application buffer, then signal completion.
            window = (
                machine.rank_to_local(master), ("bcast-buf", master),
                self.nbytes,
            )
            yield from self.counters.copy_out(
                ctx, ROLE_COPIER, "shaddr.copy-out", f"shaddr.r{rank}",
                window,
            )
            yield from self.counters.release(node)
