"""Pipelined ring reduction of one color's partition to the root node.

The network protocol of both allreduce variants (section V-C): "A ring
algorithm is used in the reduction followed by the broadcast of the reduced
data from the assigned root process.  Similar to the broadcast algorithm, a
multicolor scheme is used to select three edge-disjoint routes in the 3D
torus both for reduction and broadcast."

Per color, the snake ring (``repro.msg.routes.ring_order``) is traversed
from the far end toward the root: ring position ``i`` receives the running
partial from position ``i+1``, folds in its own (locally pre-reduced)
contribution on the node's *protocol core*, and forwards to position
``i-1``; position ``0`` (the root) produces the final partition, chunk by
chunk, feeding the pipelined broadcast stage.

The protocol core is a flow resource with a single core's reduction
throughput: all three colors' ring additions contend on it, which models
one dedicated core doing the whole network protocol (proposed scheme) or
the lone master core doing everything (current scheme).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.msg.color import Color
from repro.msg.pipeline import ChunkPlan
from repro.sim.events import Event
from repro.sim.flownet import KIND_PROTO_CORE, FlowResource
from repro.sim.sync import SimCounter

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.hardware.machine import Machine


def protocol_cores(machine: "Machine", algorithm: str) -> List[FlowResource]:
    """One protocol-core resource per node, at a single core's reduction
    throughput.  A node's cores outlive a collective call, so the set is
    made once per machine object, algorithm and cache regime, and every
    invocation of ``algorithm`` shares it."""
    caps = tuple(node.regime.core_reduce_cap for node in machine.nodes)
    # (algorithm, caps) -> cores, in the machine object's own __dict__:
    # the cores die with it, and a traffic job's view (whose other
    # attributes fall through to its parent machine) gets its own.  A
    # module-level WeakKeyDictionary would keep each dead machine's flow
    # network alive past the collection that frees the machine.
    sets = vars(machine).setdefault("_protocol_core_sets", {})
    cores = sets.get((algorithm, caps))
    if cores is None:
        cores = sets[(algorithm, caps)] = [
            machine.flownet.add_resource(
                f"n{n}.proto.{algorithm}", cap, KIND_PROTO_CORE,
            )
            for n, cap in enumerate(caps)
        ]
    return cores


class RingReduce:
    """One color's ring reduction; spawned entirely as service coroutines."""

    def __init__(
        self,
        inv,  # AllreduceInvocation (duck-typed)
        color: Color,
        ring: List[int],
        part_off: int,
        part_bytes: int,
        chunk_bytes: int,
        contrib_ready: List[SimCounter],
        proto_cores: List[FlowResource],
        start: Event,
        on_root_chunk: Callable[[int, int], None],
        reception_extra: Optional[Callable[[int, int], object]] = None,
    ):
        #: optional per-chunk reception work (a sub-generator factory taking
        #: (node, size)) run on the protocol core before the addition — the
        #: current scheme's memory-FIFO staging copy goes here; the proposed
        #: scheme direct-puts into the application buffer and passes None.
        self.reception_extra = reception_extra
        self.inv = inv
        self.machine = inv.machine
        self.color = color
        self.ring = ring
        self.part_off = part_off
        self.plan = ChunkPlan.build(part_bytes, chunk_bytes)
        self.contrib_ready = contrib_ready
        self.proto_cores = proto_cores
        self.start = start
        self.on_root_chunk = on_root_chunk
        engine = self.machine.engine
        n = len(ring)
        # arrival of the running partial at position i for chunk k
        self._arrive: Dict[Tuple[int, int], Event] = {
            (i, k): Event(engine)
            for i in range(n)
            for k in range(self.plan.nchunks)
        }
        # partial payload in flight (only when carrying data)
        self._partials: Dict[Tuple[int, int], np.ndarray] = {}
        for i in range(n):
            self.machine.spawn(
                self._position(i), name=f"ring.c{color.id}.p{i}"
            )

    # -- data helpers -----------------------------------------------------
    def _contribution(self, node: int, off: int, size: int):
        return self.inv.local_contribution(node, self.part_off + off, size)

    def _position(self, i: int):
        """Service coroutine for ring position ``i`` (0 = root)."""
        yield self.start
        machine = self.machine
        engine = machine.engine
        params = machine.params
        n = len(self.ring)
        node = self.ring[i]
        node_obj = machine.nodes[node]
        for k, off, size in self.plan.slices():
            # Wait for this node's locally reduced contribution.
            counter = self.contrib_ready[node]
            if counter.value < off + size:
                yield counter.wait_for(off + size)
            incoming: Optional[np.ndarray] = None
            if i < n - 1:
                yield self._arrive[(i, k)]
                incoming = self._partials.pop((i, k), None)
                if self.reception_extra is not None:
                    yield from self.reception_extra(node, size)
                # Fold the partial into this node's contribution on the
                # protocol core (read partial + read own + write = 3 raw
                # bytes per byte).
                yield machine.flownet.transfer(
                    {node_obj.mem: 3.0, self.proto_cores[node]: 1.0},
                    size,
                    cap=node_obj.regime.core_reduce_cap,
                    name=f"ringadd.c{self.color.id}.p{i}.k{k}",
                )
            partial = None
            if self.inv.carry_data:
                own = self._contribution(node, off, size)
                partial = own if incoming is None else incoming + own
            if i > 0:
                # Forward to the predecessor (toward the root).
                yield engine.timeout(params.dma_startup)
                delivered = machine.network.ptp_send(
                    self.color.id, node, self.ring[i - 1], size,
                    name=f"ringsend.c{self.color.id}.p{i}.k{k}",
                )
                if partial is not None:
                    self._partials[(i - 1, k)] = partial
                delivered.on_trigger(
                    lambda _v, i=i, k=k: self._arrive[(i - 1, k)].trigger(None)
                )
                # In-order injection per connection.
                yield delivered
            else:
                if partial is not None:
                    import numpy as np

                    expected = self.inv.expected_slice_f64(
                        self.part_off + off, size
                    )
                    if not np.array_equal(partial, expected):
                        raise AssertionError(
                            f"ring c{self.color.id}: bad partial at root, "
                            f"chunk {k}"
                        )
                self.on_root_chunk(self.part_off + off, size)
