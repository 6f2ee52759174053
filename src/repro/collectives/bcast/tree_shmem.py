"""Collective-network broadcast, proposed latency scheme (section V-B-2).

"Shared Memory broadcast over Collective network: In this simple and basic
design the data from the tree is transferred into a buffer shared across
all [the processes of] the node.  The same core accessing the collective
network does both the injection and reception of the data.  The received
data is placed in a shared memory segment from where it is copied over by
the other processes on the node.  This optimization works for short
messages where the copy cost is not a dominating factor."

This is the ``CollectiveNetwork + Shmem`` series of Fig 6: it adds only a
fraction of a microsecond (flag + tiny copy) over the raw SMP-mode hardware
latency, versus several microseconds for the DMA path.
"""

from __future__ import annotations

from typing import List

from repro.collectives.base import BcastInvocation
from repro.collectives.common import wait_published
from repro.collectives.registry import register
from repro.hardware.tree import TreeOperation
from repro.kernel.shmem import SharedSegment
from repro.sim.sync import SimCounter
from repro.telemetry.recorder import ROLE_COPIER, ROLE_MASTER


@register("bcast", modes=(2, 4))
class TreeShmemBcast(BcastInvocation):
    """Quad-mode latency-optimized broadcast through a shared segment."""

    name = "tree-shmem"
    network = "tree"

    def setup(self) -> None:
        machine = self.machine
        params = machine.params
        self.op: TreeOperation = machine.tree.operation(
            self.nbytes, params.pipeline_width
        )
        self.segments: List[SharedSegment] = [
            SharedSegment(machine, max(1, self.nbytes), name=f"n{n}.seg")
            for n in range(machine.nnodes)
        ]
        #: per-node count of chunks staged into the shared segment
        self.staged: List[SimCounter] = [
            machine.make_counter(name=f"n{n}.staged", node=n)
            for n in range(machine.nnodes)
        ]

    def proc(self, rank: int):
        ctx = self.context(rank)
        machine = self.machine
        params = machine.params
        engine = machine.engine
        yield engine.timeout(params.mpi_overhead)
        node = ctx.node_index
        master = machine.node_ranks(node)[0]
        tel = engine.telemetry
        if rank == master:
            if tel is not None:
                tel.set_role(rank, node, ROLE_MASTER)
            yield engine.timeout(params.tree_inject_startup)
            offset = 0
            for k in range(self.op.nchunks):
                size = self.op.chunks[k]
                yield from self.op.inject(node, k)
                # Drain into the shared segment (same core).
                yield from self.op.receive(node, k)
                data = self.payload_slice(offset, size)
                if data is not None:
                    self.segments[node].buffer[offset:offset + size] = data
                # Publish the staging flag.
                yield engine.timeout(params.flag_cost)
                self.staged[node].add(1)
                # The master's own buffer also needs the payload (a short
                # copy out of the segment — it received into staging).
                t0 = engine.now
                yield from ctx.node.core_copy(size, name="shmem-self")
                if tel is not None:
                    tel.copied(t0, engine.now, rank, node, ROLE_MASTER,
                               "shmem.copy-self", size)
                if data is not None and rank != self.root:
                    self.write_result(rank, offset, data)
                offset += size
        else:
            if tel is not None:
                tel.set_role(rank, node, ROLE_COPIER)
            offset = 0
            for k in range(self.op.nchunks):
                size = self.op.chunks[k]
                yield from wait_published(ctx, self.staged[node], k + 1)
                yield engine.timeout(params.shmem_chunk_overhead)
                t0 = engine.now
                yield from ctx.node.core_copy(size, name="shmem-out")
                if tel is not None:
                    tel.copied(t0, engine.now, rank, node, ROLE_COPIER,
                               "shmem.copy-out", size)
                if self.carry_data:
                    self.write_result(
                        rank,
                        offset,
                        self.segments[node].buffer[offset:offset + size],
                    )
                offset += size
