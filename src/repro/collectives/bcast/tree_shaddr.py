"""Collective-network broadcast, proposed bandwidth scheme (section V-B-2,
Fig 4): shared address space + core specialization.

"An injection process injects data into the collective network and a
separate reception process copies the network output into the application
buffer. ... We designate all the processes with local rank zero from all
the nodes as the injection processes.  All the processes with local rank
one would be the reception processes.  However, unlike the Shared Memory
approach, the data buffers involved in the operation are directly the
application buffers. ... Once a chunk of data is copied into its
application buffer, it [rank 1] notifies the other two processes ... using
a software shared counter ... These two processes copy the data directly
from the application buffer of [the] process with local rank one.  Further,
the process with local rank two makes an additional copy into the
application buffer of the injection process ... The extra copy is not a
problem as the memory bandwidth is at least twice that of the collective
network."

The paper's roles assume the root at local rank 0.  Here they count from
the root's local rank on every node: that rank injects, the next one
(modulo the node's four) receives, and the two after it copy, the first
of them also into the injection process's buffer.
"""

from __future__ import annotations

from typing import List

from repro.collectives.base import BcastInvocation
from repro.collectives.common import wait_published
from repro.collectives.registry import register
from repro.hardware.tree import TreeOperation
from repro.sim.sync import SimCounter
from repro.telemetry.recorder import (
    ROLE_COPIER,
    ROLE_INJECTOR,
    ROLE_RECEIVER,
)


@register("bcast", modes=(4,), shared_address=True)
class TreeShaddrBcast(BcastInvocation):
    """Quad-mode core-specialized broadcast over mapped application buffers."""

    name = "tree-shaddr"
    network = "tree"

    def setup(self) -> None:
        machine = self.machine
        #: the injection process's local rank, the root's on every node
        self.lead = machine.rank_to_local(self.root)
        params = machine.params
        self.op: TreeOperation = machine.tree.operation(
            self.nbytes, params.pipeline_width
        )
        #: rank-1's software counter: chunks landed in its application buffer
        self.sw_counter: List[SimCounter] = [
            machine.make_counter(name=f"n{n}.swcnt", node=n)
            for n in range(machine.nnodes)
        ]
        #: chunks copied into the injection process's buffer by local rank 2
        self.injector_filled: List[SimCounter] = [
            machine.make_counter(name=f"n{n}.injfill", node=n)
            for n in range(machine.nnodes)
        ]

    def proc(self, rank: int):
        ctx = self.context(rank)
        machine = self.machine
        params = machine.params
        engine = machine.engine
        if self.nbytes == 0:
            return
        yield engine.timeout(params.mpi_overhead)
        node = ctx.node_index
        local = ctx.local_rank
        # 0 injects, 1 receives, 2 and 3 copy (see the module docstring).
        role = (local - self.lead) % machine.ppn
        nchunks = self.op.nchunks
        tel = engine.telemetry
        if role == 0:
            # Injection process: drives the tree from its application buffer
            # (the global root injects payload; everyone else zeros).
            if tel is not None:
                tel.set_role(rank, node, ROLE_INJECTOR)
            yield engine.timeout(params.tree_inject_startup)
            for k in range(nchunks):
                t0 = engine.now
                yield from self.op.inject(node, k)
                if tel is not None:
                    tel.copied(t0, engine.now, rank, node, ROLE_INJECTOR,
                               "tree.inject", self.op.chunks[k])
            if rank != self.root:
                # Its own copy arrives via rank 2's extra copy.
                t0 = engine.now
                yield self.injector_filled[node].wait_for(nchunks)
                if tel is not None:
                    tel.stall(t0, engine.now, rank, node, "waiting-on-counter")
        elif role == 1:
            # Reception process: drains straight into its application
            # buffer and publishes the software counter.
            if tel is not None:
                tel.set_role(rank, node, ROLE_RECEIVER)
            offset = 0
            for k in range(nchunks):
                size = self.op.chunks[k]
                t0 = engine.now
                yield from self.op.receive(node, k)
                if tel is not None:
                    tel.copied(t0, engine.now, rank, node, ROLE_RECEIVER,
                               "tree.receive", size)
                data = self.payload_slice(offset, size)
                if data is not None:
                    self.write_result(rank, offset, data)
                yield engine.timeout(params.flag_cost)
                self.sw_counter[node].add(1)
                offset += size
        else:
            # Copy processes: role 2 copies to itself and to the
            # injection process; role 3 copies to itself only.
            if tel is not None:
                tel.set_role(rank, node, ROLE_COPIER)
            reception_local = (self.lead + 1) % machine.ppn
            reception_rank = machine.node_ranks(node)[reception_local]
            injection_rank = machine.node_ranks(node)[self.lead]
            offset = 0
            for k in range(nchunks):
                size = self.op.chunks[k]
                yield from wait_published(ctx, self.sw_counter[node], k + 1)
                # Map the reception (and, for role 2, the injection) buffer
                # at every access; the window cache makes repeats free.
                yield from ctx.windows.map_buffer(
                    reception_local, ("bcast-buf", reception_rank),
                    self.nbytes,
                )
                if role == 2:
                    yield from ctx.windows.map_buffer(
                        self.lead, ("bcast-buf", injection_rank), self.nbytes
                    )
                t0 = engine.now
                yield from ctx.node.core_copy(size, name=f"shaddr.l{local}")
                if tel is not None:
                    tel.copied(t0, engine.now, rank, node, ROLE_COPIER,
                               "shaddr.copy-out", size)
                data = self.payload_slice(offset, size)
                if data is not None:
                    self.write_result(rank, offset, data)
                if role == 2:
                    # The additional copy into the injection process.
                    t0 = engine.now
                    yield from ctx.node.core_copy(size, name="shaddr.inj")
                    if tel is not None:
                        tel.copied(t0, engine.now, rank, node, ROLE_COPIER,
                                   "shaddr.extra-copy", size)
                    if data is not None:
                        self.write_result(injection_rank, offset, data)
                    self.injector_filled[node].add(1)
                offset += size
