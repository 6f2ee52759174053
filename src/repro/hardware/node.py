"""A Blue Gene/P compute node.

A node owns four flow-network resources:

``mem``
    The shared memory port, in raw bytes/µs (reads + writes).  A copy of
    ``n`` payload bytes consumes ``2n`` raw bytes; a reduction of ``k``
    buffers into one consumes ``(k+1)n``.
``dma``
    The DMA engine's aggregate budget.  Torus injection/reception and
    DMA-driven local copies all draw from it (and from ``mem``).
``tree_up`` / ``tree_down``
    The collective-network injection and reception ports (850 MB/s each
    way).  There is *no DMA* on this network: a core must drive each port,
    which is why these flows are issued from core coroutines.

Core-driven operations are exposed as sub-generators (``yield from
node.core_copy(n)``): the calling coroutine *is* the core, so the core is
busy — and unavailable for other work — for the duration, exactly like the
real PPC450 doing a memcpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.hardware.memory import MemoryRegime
from repro.sim.flownet import (
    KIND_DMA,
    KIND_MEM,
    KIND_TREE_DOWN,
    KIND_TREE_UP,
    Flow,
    FlowResource,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.machine import Machine


class Node:
    """One compute node: resources plus core-op helpers."""

    def __init__(self, machine: "Machine", index: int, coords: Tuple[int, ...]):
        self.machine = machine
        self.index = index
        self.coords = coords
        params = machine.params
        net = machine.flownet
        initial = machine.memory_model.regime(0)
        self.regime: MemoryRegime = initial
        self.mem: FlowResource = net.add_resource(
            f"n{index}.mem", initial.raw_capacity, KIND_MEM
        )
        self.dma: FlowResource = net.add_resource(
            f"n{index}.dma", params.dma_total_bw, KIND_DMA
        )
        self.tree_up: FlowResource = net.add_resource(
            f"n{index}.tree_up", params.tree_link_bw, KIND_TREE_UP
        )
        self.tree_down: FlowResource = net.add_resource(
            f"n{index}.tree_down", params.tree_link_bw, KIND_TREE_DOWN
        )

    # -- configuration ----------------------------------------------------
    def set_regime(self, regime: MemoryRegime) -> None:
        """Install the cache regime for the upcoming collective run."""
        self.regime = regime
        self.mem.set_capacity(regime.raw_capacity)

    # -- core-driven flows ---------------------------------------------------
    def core_copy_flow(self, nbytes: int, name: str = "core-copy") -> Flow:
        """Start (without waiting) a single-core memory copy of ``nbytes``."""
        return self.machine.flownet.transfer(
            {self.mem: 2.0},
            nbytes,
            cap=self.regime.core_copy_cap,
            name=f"n{self.index}.{name}",
        )

    def core_copy(self, nbytes: int, name: str = "core-copy"):
        """Sub-generator: the calling core copies ``nbytes`` (blocking it)."""
        yield self.core_copy_flow(nbytes, name=name)

    def fifo_copy(self, nbytes: int, name: str = "fifo-copy"):
        """Sub-generator: a copy into/out of small shared staging slots.

        Producer/consumer traffic through staging FIFOs ping-pongs cache
        lines between cores, so it runs at the lower
        :attr:`~repro.hardware.memory.MemoryRegime.fifo_copy_cap` ceiling.
        """
        yield self.machine.flownet.transfer(
            {self.mem: 2.0},
            nbytes,
            cap=self.regime.fifo_copy_cap,
            name=f"n{self.index}.{name}",
        )

    def core_reduce(self, out_bytes: int, nbuffers: int, name: str = "core-reduce"):
        """Sub-generator: the calling core reduces ``nbuffers`` input buffers
        into one output of ``out_bytes`` (e.g. the local sum of the allreduce).
        """
        if nbuffers < 2:
            raise ValueError(f"reduction needs >= 2 buffers, got {nbuffers}")
        yield self.machine.flownet.transfer(
            {self.mem: float(nbuffers + 1)},
            out_bytes,
            cap=self.regime.core_reduce_cap,
            name=f"n{self.index}.{name}",
        )

    def tree_inject_flow(self, nbytes: int, name: str = "tree-inject") -> Flow:
        """Start a core-driven injection into the collective network."""
        params = self.machine.params
        return self.machine.flownet.transfer(
            {self.mem: 1.0, self.tree_up: 1.0},
            nbytes,
            cap=params.tree_core_inject_bw,
            name=f"n{self.index}.{name}",
        )

    def tree_receive_flow(self, nbytes: int, name: str = "tree-recv") -> Flow:
        """Start a core-driven drain of the collective network's output FIFO."""
        params = self.machine.params
        return self.machine.flownet.transfer(
            {self.mem: 1.0, self.tree_down: 1.0},
            nbytes,
            cap=params.tree_core_recv_bw,
            name=f"n{self.index}.{name}",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.index} coords={self.coords}>"
