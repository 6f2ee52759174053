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

from typing import List, Tuple

from repro.collectives.allreduce.base import DOUBLE, AllreduceInvocation
from repro.collectives.allreduce.ring import RingReduction
from repro.collectives.bcast.torus_common import TorusBcastNetwork
from repro.collectives.registry import register
from repro.sim.resources import Store
from repro.sim.sync import SimCounter
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
        engine = machine.engine
        self.net = TorusBcastNetwork(
            self, self.ncolors, machine.params.pipeline_width,
            external_root_feed=True, align=DOUBLE,
        )
        # Result-arrival publication (master core -> worker cores).
        self.mailbox: List[Store] = [
            Store(engine, name=f"n{n}.mbox") for n in range(machine.nnodes)
        ]
        self.published: List[SimCounter] = [
            machine.make_counter(name=f"n{n}.pub", node=n)
            for n in range(machine.nnodes)
        ]
        self.records: List[List[Tuple[int, int]]] = [
            [] for _ in range(machine.nnodes)
        ]
        self.completion: List[SimCounter] = [
            machine.make_counter(name=f"n{n}.done", node=n)
            for n in range(machine.nnodes)
        ]
        self.net.on_chunk(
            lambda node, _c, goff, size: self.mailbox[node].put((goff, size))
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
        machine = self.machine
        params = machine.params
        engine = machine.engine
        if self.count == 0:
            return
        yield engine.timeout(params.mpi_overhead)
        node = ctx.node_index
        local = ctx.local_rank
        tel = engine.telemetry
        if rank == self.root:
            self.net.open()
        if local == 0:
            # Master core: runs the network protocol (the ring additions are
            # charged to this node's protocol-core resource by RingReduce)
            # and publishes result arrivals to the worker cores.
            if tel is not None:
                tel.set_role(rank, node, ROLE_PROTOCOL)
            total = self.net.total_chunks_per_node
            for _ in range(total):
                goff, size = yield self.mailbox[node].get()
                yield engine.timeout(
                    params.dma_counter_poll + params.flag_cost
                )
                self.records[node].append((goff, size))
                self.published[node].add(1)
            t0 = engine.now
            yield self.completion[node].wait_for(machine.ppn - 1)
            if tel is not None:
                tel.stall(t0, engine.now, rank, node, "waiting-on-counter")
        else:
            # Worker core: owns color (local-1); locally reduces its
            # partition in pipeline chunks (accessing every local buffer
            # through mapped windows), then copies the full result out of
            # the master's buffer.
            c = local - 1
            yield from self.reduction.mapped_reduce(ctx, "allreduce-buf")
            # Local broadcast: chase the master's software counters.
            total = self.net.total_chunks_per_node
            for i in range(total):
                if self.published[node].value < i + 1:
                    t0 = engine.now
                    yield self.published[node].wait_for(i + 1)
                    if tel is not None:
                        tel.stall(t0, engine.now, rank, node,
                                  "waiting-on-counter")
                    yield engine.timeout(params.flag_cost)
                goff, size = self.records[node][i]
                t0 = engine.now
                yield from ctx.node.core_copy(size, name=f"lbcast.l{local}")
                if tel is not None:
                    tel.copied(t0, engine.now, rank, node,
                               reduce_core_role(c), "local-bcast", size)
                data = self.payload_slice(goff, size)
                if data is not None:
                    self.write_result(rank, goff, data)
            yield engine.timeout(params.atomic_op_cost)
            self.completion[node].add(1)
