"""Reduce-to-root over the torus: current vs shared-address variants.

Both run the allreduce's reduction stage,
:class:`repro.collectives.allreduce.ring.RingReduction` (each node's local
reduce feeding the multi-color pipelined ring toward the root), and stop
there: the reduced chunks land in the root's buffer.  They differ in how
each node's contribution is produced — exactly the §V-C contrast, minus the
broadcast stage.
"""

from __future__ import annotations

from repro.collectives.allreduce.ring import RingReduction
from repro.collectives.reduce.base import ReduceInvocation
from repro.collectives.registry import register
from repro.sim.events import Event
from repro.sim.sync import SimCounter


class _TorusReduceBase(ReduceInvocation):
    """Shared ring + bookkeeping for both reduce variants."""

    network = "ptp"
    ncolors = 3
    #: the current scheme's DMA-staged local reduce (else worker cores
    #: reduce the mapped buffers in place)
    staged = False
    #: per-hop reception work before each ring addition (None: the
    #: partial is direct-put into the application buffer)
    reception_extra = None

    def setup(self) -> None:
        engine = self.machine.engine
        self.start = Event(engine)
        #: bytes of the final result landed at the root
        self.root_received = SimCounter(engine, name="root.result")
        self.reduction = RingReduction(
            self, self.ncolors, self.start, self._root_chunk,
            staged=self.staged, reception_extra=self.reception_extra,
        )

    def _root_chunk(self, _c: int, goff: int, size: int) -> None:
        self.write_root_slice(goff, size)
        self.root_received.add(size)

    def proc(self, rank: int):
        ctx = self.context(rank)
        machine = self.machine
        params = machine.params
        engine = machine.engine
        if self.count == 0:
            return
        yield engine.timeout(params.mpi_overhead)
        if rank == self.root:
            self.start.trigger(None)
        if not self.staged and ctx.local_rank > 0:
            # Worker core: reduce its color of the mapped buffers (the
            # protocol core's ring work is flow-charged).
            yield from self.reduction.mapped_reduce(ctx, "reduce-buf")
        if rank == self.root:
            yield self.root_received.wait_for(self.nbytes)
            yield engine.timeout(params.dma_counter_poll)
        else:
            # Local completion: the rank may return once its node's
            # contribution has been fully produced (buffers reusable).
            node = ctx.node_index
            for c, plan in enumerate(self.reduction.plans):
                if plan.nchunks:
                    yield self.reduction.contrib_ready[c][node].wait_for(
                        plan.total
                    )


@register("reduce")
class TorusCurrentReduce(_TorusReduceBase):
    """Baseline: DMA-staged local reduction + memory-FIFO ring receptions."""

    name = "reduce-torus-current"
    staged = True

    def reception_extra(self, node: int, size: int):
        """The memory-FIFO reception: the protocol core copies each
        arrived partial out of the FIFO before adding it."""
        machine = self.machine
        node_obj = machine.nodes[node]
        yield machine.engine.timeout(machine.params.dma_fifo_overhead)
        yield machine.flownet.transfer(
            {node_obj.mem: 2.0, self.reduction.proto_cores[node]: 1.0},
            size,
            cap=node_obj.regime.core_copy_cap,
            name=f"redfifo.n{node}",
        )


@register("reduce", modes=(4,), shared_address=True)
class TorusShaddrReduce(_TorusReduceBase):
    """Proposed: worker cores reduce mapped buffers in place, one color each."""

    name = "reduce-torus-shaddr"
