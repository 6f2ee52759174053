"""The collective (tree) network.

Section III-A: "The collective network has a tree topology and supports
reliable data movement at a raw throughput of 850MB/s. The hardware is
capable of routing packets upward to the root or downward to the leaves,
and it has an integer arithmetic logic unit (ALU). ... Note that there is
no DMA on this network. Packet injection and reception on the collective
network is handled by a processor core."

Model
-----
Operations on this network are *global*: every node contributes packets
(the root injects data, the others inject zeros into a global OR for a
broadcast) and every node receives the combined result.  We model an
operation as a sequence of pipeline chunks:

* each node injects chunk *k* (a core-driven flow on its ``tree_up`` port);
* the combined chunk becomes *available* once every node's injection has
  completed, plus the up+down traversal latency (``2 x depth x hop``);
* each node then drains chunk *k* from its ``tree_down`` port (another
  core-driven flow);
* the hardware has only :attr:`BGPParams.tree_window_chunks` chunks of
  in-flight buffering: injection of chunk ``k`` blocks until every node has
  drained chunk ``k - window`` (token backpressure).

This makes the paper's two observations emerge naturally: a single core
doing injection *and* reception serializes them (half throughput — hence
"two cores within a node are required to fully saturate the collective
network"), and a receiving core slowed by extra copies backpressures the
entire machine.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional

from repro.sim.events import Event
from repro.sim.sync import SimCounter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.machine import Machine


def split_chunks(nbytes: int, chunk_bytes: int) -> List[int]:
    """Split ``nbytes`` into pipeline chunks of at most ``chunk_bytes``."""
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if chunk_bytes <= 0:
        raise ValueError(f"chunk_bytes must be > 0, got {chunk_bytes}")
    if nbytes == 0:
        return []
    full, rest = divmod(nbytes, chunk_bytes)
    chunks = [chunk_bytes] * full
    if rest:
        chunks.append(rest)
    return chunks


class CollectiveNetwork:
    """The tree network shared by all nodes of a machine."""

    def __init__(self, machine: "Machine", depth_nodes: Optional[int] = None):
        self.machine = machine
        self.nnodes = machine.nnodes
        #: node count the tree depth is computed from: the machine's own,
        #: or the full machine's when a 2-node run stands in for it
        self.depth_nodes = self.nnodes if depth_nodes is None else depth_nodes

    @property
    def depth(self) -> int:
        """Tree depth used for latency: ``ceil(log2(depth_nodes))`` (min 1).

        ``depth_nodes`` is the machine's node count unless the machine was
        built with ``tree_depth_nodes``: a folded collective-network run
        (:func:`repro.bench.parallel.run_point`) simulates 2 nodes at the
        full machine's depth.  Depth is the only place machine size enters
        a tree operation's timing.
        """
        return max(1, math.ceil(math.log2(max(2, self.depth_nodes))))

    @property
    def traversal_latency(self) -> float:
        """Up-and-down combining latency of one packet (µs)."""
        return 2.0 * self.depth * self.machine.params.tree_hop_latency

    def operation(self, nbytes: int, chunk_bytes: int) -> "TreeOperation":
        """Create the bookkeeping for one global tree operation."""
        return TreeOperation(self, nbytes, chunk_bytes)


class TreeOperation:
    """One global operation (broadcast-via-OR or allreduce) on the tree.

    Used by the collective algorithms: every node's injecting coroutine
    calls :meth:`inject` for each chunk, every receiving coroutine awaits
    :meth:`available` and then issues its drain flow via
    :meth:`receive`.  The class enforces the in-flight window.
    """

    def __init__(self, network: CollectiveNetwork, nbytes: int, chunk_bytes: int):
        self.network = network
        machine = network.machine
        self.machine = machine
        self.chunks = split_chunks(nbytes, chunk_bytes)
        self.nchunks = len(self.chunks)
        nnodes = network.nnodes
        engine = machine.engine
        # chunk k available (combined result left the root downward)
        self._inject_done = [
            SimCounter(engine, name=f"tree.inj{k}") for k in range(self.nchunks)
        ]
        self._available = [Event(engine) for _ in range(self.nchunks)]
        # chunk k fully drained machine-wide (releases a window token)
        self._drained = [
            SimCounter(engine, name=f"tree.drn{k}") for k in range(self.nchunks)
        ]
        self._all_drained = [Event(engine) for _ in range(self.nchunks)]
        self._nnodes = nnodes
        for k in range(self.nchunks):
            latency = network.traversal_latency

            def arm(k: int = k, latency: float = latency) -> None:
                def fire(_v) -> None:
                    engine.call_after(latency, self._available[k].trigger, None)

                self._inject_done[k].wait_for(nnodes).on_trigger(fire)
                self._drained[k].wait_for(nnodes).on_trigger(
                    lambda _v, k=k: self._all_drained[k].trigger(None)
                )

            arm()

    # -- node-side coroutines ------------------------------------------------
    def inject(self, node_index: int, k: int):
        """Sub-generator: node ``node_index``'s core injects chunk ``k``."""
        window = self.machine.params.tree_window_chunks
        if k >= window:
            yield self._all_drained[k - window]
        node = self.machine.nodes[node_index]
        yield node.tree_inject_flow(self.chunks[k], name=f"tree-inj{k}")
        self._inject_done[k].add(1)

    def receive(self, node_index: int, k: int):
        """Sub-generator: node's core drains chunk ``k`` from the tree FIFO."""
        yield self._available[k]
        node = self.machine.nodes[node_index]
        yield node.tree_receive_flow(self.chunks[k], name=f"tree-rcv{k}")
        self._drained[k].add(1)
