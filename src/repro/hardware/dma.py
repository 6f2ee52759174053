"""DMA engine semantics: descriptors, byte counters, direct put/get,
memory-FIFO delivery, and intra-node copies.

The BG/P DMA (section III-A of the paper) is the workhorse of the *current*
(baseline) algorithms: it injects/receives torus packets and also performs
"local intra-node memory copies".  Its crucial property for this paper is a
finite aggregate budget — "the DMA, though capable of keeping all the six
links busy ... is not enough to concurrently transfer the data within the
node along with the network transfers".  The budget is the node's ``dma``
flow resource; this module adds the *semantics* around it:

* ``post`` — the descriptor-injection cost paid by the posting core;
* ``local_copy_flow`` — a DMA-driven node-local copy (direct put to a
  local buffer): ``dma_local_copy_weight`` raw bytes/byte on the DMA and
  2 on the memory port;
* ``fifo_deliver_flow`` — delivery into a reception memory FIFO: the DMA
  writes packets into a staging FIFO (1 write byte/byte) and the
  *receiving core* must then copy payload out to the application buffer
  (modelled by the caller as a core copy), plus per-chunk FIFO
  bookkeeping latency.

Byte counters mirror the hardware: a counter is allocated per operation,
decremented (we count *up* for convenience) as bytes land, and polled by
cores with :attr:`BGPParams.dma_counter_poll` observation latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.flownet import Flow
from repro.sim.sync import SimCounter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.node import Node


class DmaCounter:
    """A DMA byte counter plus the polling discipline of the cores.

    Hardware counters are decremented by the DMA as chunks land; processes
    poll them.  ``wait_for(threshold)`` models a poll loop observing the
    counter having reached ``threshold`` bytes, including the poll-detection
    latency.
    """

    def __init__(self, node: "Node", name: str = "dma-counter"):
        self.node = node
        self.name = name
        self._counter = SimCounter(node.machine.engine, 0.0, name=name)

    @property
    def value(self) -> float:
        return self._counter.value

    def add(self, nbytes: float) -> None:
        """DMA-side: account ``nbytes`` more landed bytes."""
        self._counter.add(nbytes)

    def wait_for(self, threshold: float):
        """Sub-generator: core polls until the counter reaches ``threshold``."""
        engine = self.node.machine.engine
        if self._counter.value < threshold:
            yield self._counter.wait_for(threshold)
            # Detection latency of the poll loop.
            yield engine.timeout(self.node.machine.params.dma_counter_poll)
        return self._counter.value


class DmaEngine:
    """Per-node facade over the node's ``dma`` flow resource."""

    def __init__(self, node: "Node"):
        self.node = node
        self.params = node.machine.params
        self._net = node.machine.flownet

    # -- costs paid by cores -----------------------------------------------
    def post(self):
        """Sub-generator: the calling core posts one DMA descriptor."""
        yield self.node.machine.engine.timeout(self.params.dma_startup)

    # -- DMA-driven movement ---------------------------------------------
    def local_copy_flow(self, nbytes: int, name: str = "dma-copy") -> Flow:
        """Start a DMA-driven node-local copy (direct put to a local buffer).

        Consumes :attr:`BGPParams.dma_local_copy_weight` raw bytes per
        payload byte on the DMA engine (read + write + descriptor handling
        through the same port) and 2 on the memory port.
        """
        return self._net.transfer(
            {self.node.dma: self.params.dma_local_copy_weight,
             self.node.mem: 2.0},
            nbytes,
            name=f"n{self.node.index}.{name}",
        )

    def fifo_deliver_flow(self, nbytes: int, name: str = "dma-fifo") -> Flow:
        """Start DMA delivery of ``nbytes`` into a reception memory FIFO.

        One raw write byte per payload byte on DMA and memory; the follow-up
        copy from the FIFO to the application buffer is a *core* copy that
        the caller issues separately (that extra copy is precisely why the
        memory-FIFO path loses to direct put and to the shared-address
        schemes).
        """
        return self._net.transfer(
            {self.node.dma: 1.0, self.node.mem: 1.0},
            nbytes,
            name=f"n{self.node.index}.{name}",
        )

    def make_counter(self, name: str = "dma-counter") -> DmaCounter:
        """Allocate a fresh byte counter bound to this node."""
        return DmaCounter(self.node, name=name)
