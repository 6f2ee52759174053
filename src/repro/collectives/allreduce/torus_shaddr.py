"""Allreduce over the torus, proposed approach (section V-C-2).

"The allreduce operation can be decomposed into the following tasks:
a) network allreduce b) local reduce and c) local broadcast. ... The
central idea of the new approach is to delegate one core to do the network
allreduce operation and the remaining three cores to do the local reduce
and broadcast operation.  Since there are three independent allreduce
operations or three colors occurring at the same time, each of the three
cores is delegated to handle one color each.  The data buffers are
uniformly split three way and each of the cores works on its partition.
... All the application buffers are mapped using the system call
interfaces, and no extra copy operations are necessary.  The cores then
inform the master core doing the network allreduce protocol via shared
software message counters. ... Once the network data arrives in the
application receive buffer of the master core, it notifies the three
cores.  The other three cores start copying the data into their own
respective buffers after they are done with reducing all the buffer
partitions assigned to them."
"""

from __future__ import annotations

from repro.collectives.allreduce.base import DOUBLE, AllreduceInvocation
from repro.collectives.allreduce.ring import RingReduction
from repro.collectives.bcast.torus_common import TorusBcastNetwork
from repro.collectives.common import CounterBroadcast
from repro.collectives.registry import register
from repro.telemetry.recorder import ROLE_PROTOCOL, reduce_core_role


@register("allreduce", modes=(4,), shared_address=True)
class TorusShaddrAllreduce(AllreduceInvocation):
    """Core-specialized shared-address allreduce (the 'New' column)."""

    name = "allreduce-torus-shaddr"
    # The broadcast stage is the rectangle schedule over deposit-bit
    # line broadcasts: this algorithm needs the real torus wire.
    network = "torus"
    ncolors = 3

    def setup(self) -> None:
        machine = self.machine
        self.net = TorusBcastNetwork(
            self, self.ncolors, machine.params.pipeline_width,
            external_root_feed=True, align=DOUBLE,
        )
        # Result-arrival publication (master core -> worker cores).
        self.counters = CounterBroadcast(
            self, self.net.total_chunks_per_node, "mbox", "pub"
        )
        self.net.on_chunk(
            lambda node, _c, goff, size: self.counters.arrive(node, goff, size)
        )
        # The dedicated network-protocol core (local rank 0) per node does
        # the ring additions; the worker cores' mapped local reduce feeds it.
        self.reduction = RingReduction(
            self, self.ncolors, self.net.start, self.net.feed_root,
            staged=False,
        )

    # -- per-rank coroutine --------------------------------------------------
    def proc(self, rank: int):
        ctx = self.context(rank)
        engine = self.machine.engine
        if self.count == 0:
            return
        yield engine.timeout(self.machine.params.mpi_overhead)
        node = ctx.node_index
        local = ctx.local_rank
        if rank == self.root:
            self.net.open()
        if local == 0:
            # Master core: runs the network protocol (the ring additions are
            # charged to this node's protocol-core resource by RingReduce)
            # and publishes result arrivals to the worker cores.
            tel = engine.telemetry
            if tel is not None:
                tel.set_role(rank, node, ROLE_PROTOCOL)
            yield from self.counters.publish(node)
            yield from self.counters.wait_released(rank, node)
        else:
            # Worker core: owns color (local-1); locally reduces its
            # partition in pipeline chunks (accessing every local buffer
            # through mapped windows), then copies the full result out of
            # the master's buffer.
            yield from self.reduction.mapped_reduce(ctx, "allreduce-buf")
            yield from self.counters.copy_out(
                ctx, reduce_core_role(local - 1), "local-bcast",
                f"lbcast.l{local}",
            )
            yield from self.counters.release(node)
