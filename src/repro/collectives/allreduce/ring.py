"""The reduction stage of the allreduce and the reduce (section V-C).

"The allreduce operation can be decomposed into the following tasks:
a) network allreduce b) local reduce and c) local broadcast."  The reduce
is the allreduce minus its broadcast, so both run the same front half, and
:class:`RingReduction` builds it: per color partition, each node's *local
reduce* fills that node's contribution counter chunk by chunk, and one
:class:`RingReduce` per color folds the contributions toward the root.
The local reduce comes in the paper's two schemes:

* **staged** (current, V-C-1): the DMA copies every peer's slice into the
  master's staging area — "redundant copies of data are transferred by the
  DMA for the reduction operation" — then the node's cores sum the staged
  buffers in parallel 1/ppn shares;
* **mapped** (proposed, V-C-2): worker core ``l`` (``l >= 1``) owns color
  ``l - 1`` and sums the mapped application buffers in place, with no
  staging copy (:meth:`RingReduction.mapped_reduce`).

The network protocol of both allreduce variants: "A ring algorithm is used
in the reduction followed by the broadcast of the reduced data from the
assigned root process.  Similar to the broadcast algorithm, a multicolor
scheme is used to select three edge-disjoint routes in the 3D torus both
for reduction and broadcast."  Per color, the snake ring
(``repro.msg.routes.ring_order``) is traversed from the far end toward the
root: ring position ``i`` receives the running partial from position
``i+1``, folds in its own (locally pre-reduced) contribution on the node's
*protocol core*, and forwards to position ``i-1``; position ``0`` (the
root) produces the final partition, chunk by chunk, and hands each chunk to
the collective's ``on_root_chunk`` (the allreduce's broadcast stage, or the
reduce's root buffer).

The protocol core is a flow resource with a single core's reduction
throughput: all three colors' ring additions contend on it, which models
one dedicated core doing the whole network protocol (proposed scheme) or
the lone master core doing everything (current scheme).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.collectives.allreduce.base import DOUBLE
from repro.msg.color import partition_bytes, torus_colors
from repro.msg.pipeline import ChunkPlan
from repro.sim.events import AllOf, Event
from repro.sim.flownet import KIND_PROTO_CORE, FlowResource
from repro.sim.sync import SimCounter
from repro.telemetry.recorder import reduce_core_role

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


class RingReduction:
    """Local reduce plus multi-color ring reduction to the root's node.

    ``inv`` is a :class:`~repro.collectives.allreduce.base.SumOfDoublesInvocation`.
    Nothing moves before ``start`` triggers.  ``on_root_chunk(c, goff,
    size)`` fires as the root's ring position produces each reduced chunk
    of color ``c``.  ``staged=True`` spawns the current scheme's staged
    local reduce for every (color, node); otherwise the worker ranks yield
    from :meth:`mapped_reduce`.  ``reception_extra(node, size)``, when
    given, is per-chunk reception work run on the protocol core before each
    ring addition (the current reduce's memory-FIFO staging copy).
    """

    def __init__(
        self,
        inv,
        ncolors: int,
        start: Event,
        on_root_chunk: Callable[[int, int, int], None],
        *,
        staged: bool,
        reception_extra: Optional[Callable[[int, int], object]] = None,
    ):
        machine = inv.machine
        engine = machine.engine
        self.inv = inv
        self.machine = machine
        self.start = start
        self.on_root_chunk = on_root_chunk
        self.reception_extra = reception_extra
        self.colors = torus_colors(ncolors)
        parts = partition_bytes(inv.nbytes, ncolors, align=DOUBLE)
        #: per color: its partition's offset in the message, and its chunks
        self.offsets = [sum(parts[:c]) for c in range(ncolors)]
        self.plans = [
            ChunkPlan.build(part, machine.params.pipeline_width)
            for part in parts
        ]
        self.proto_cores = protocol_cores(machine, inv.name)
        #: per (color, node): bytes of the locally reduced contribution ready
        self.contrib_ready: List[List[SimCounter]] = [
            [
                SimCounter(engine, name=f"c{c}.n{n}.contrib")
                for n in range(machine.nnodes)
            ]
            for c in range(ncolors)
        ]
        root_node = machine.rank_to_node(inv.root)
        for c, color in enumerate(self.colors):
            if self.plans[c].nchunks == 0:
                continue
            if staged:
                for node in range(machine.nnodes):
                    machine.spawn(
                        self._staged_reduce(c, node),
                        name=f"lprep.c{c}.n{node}",
                    )
            RingReduce(self, c, machine.network.ring_order(color, root_node))

    def _staged_reduce(self, c: int, node: int):
        """The current scheme's local reduce of color ``c`` on ``node``."""
        machine = self.machine
        dma = machine.dma[node]
        node_obj = machine.nodes[node]
        ppn = machine.ppn
        yield self.start
        for _k, _off, size in self.plans[c].slices():
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

    def mapped_reduce(self, ctx, buffer: str):
        """The proposed scheme's local reduce, run by worker rank ``ctx``.

        The worker, a reduce core, sums its color's partition of the
        node's application buffers (``(buffer, rank)`` windows, mapped at
        every access, so a cached mapping is free) in pipeline chunks, and
        publishes each chunk to the ring through the contribution counter.
        """
        machine = self.machine
        params = machine.params
        engine = machine.engine
        tel = engine.telemetry
        local = ctx.local_rank
        node = ctx.node_index
        c = local - 1
        if tel is not None:
            tel.set_role(ctx.rank, node, reduce_core_role(c))
        for _k, _off, size in self.plans[c].slices():
            for peer_local in range(machine.ppn):
                if peer_local != local:
                    peer_rank = machine.node_ranks(node)[peer_local]
                    yield from ctx.windows.map_buffer(
                        peer_local, (buffer, peer_rank), self.inv.nbytes
                    )
            # Sum the local application buffers, no staging copies.
            t0 = engine.now
            yield from ctx.node.core_reduce(
                size, machine.ppn, name=f"lred.c{c}"
            )
            if tel is not None:
                tel.copied(t0, engine.now, ctx.rank, node,
                           reduce_core_role(c), "local-reduce", size)
            yield engine.timeout(params.flag_cost)
            self.contrib_ready[c][node].add(size)


class RingReduce:
    """One color's ring reduction; spawned entirely as service coroutines."""

    def __init__(self, stage: RingReduction, c: int, ring: List[int]):
        self.stage = stage
        self.inv = stage.inv
        self.machine = stage.machine
        self.c = c
        self.color = stage.colors[c]
        self.ring = ring
        self.part_off = stage.offsets[c]
        self.plan = stage.plans[c]
        self.contrib_ready = stage.contrib_ready[c]
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
                self._position(i), name=f"ring.c{self.color.id}.p{i}"
            )

    def _position(self, i: int):
        """Service coroutine for ring position ``i`` (0 = root)."""
        stage = self.stage
        yield stage.start
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
                if stage.reception_extra is not None:
                    yield from stage.reception_extra(node, size)
                # Fold the partial into this node's contribution on the
                # protocol core (read partial + read own + write = 3 raw
                # bytes per byte).
                yield machine.flownet.transfer(
                    {node_obj.mem: 3.0, stage.proto_cores[node]: 1.0},
                    size,
                    cap=node_obj.regime.core_reduce_cap,
                    name=f"ringadd.c{self.color.id}.p{i}.k{k}",
                )
            partial = None
            if self.inv.carry_data:
                own = self.inv.local_contribution(
                    node, self.part_off + off, size
                )
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
                stage.on_root_chunk(self.c, self.part_off + off, size)
