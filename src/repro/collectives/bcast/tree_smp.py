"""Collective-network broadcast, SMP-mode reference (section V-B-1).

"The current algorithms use the fast hardware allreduce feature (math
units) of the collective network.  The root node injects data while other
nodes inject zeros in a global OR operation.  In SMP mode, two cores within
a node are required to fully saturate the collective network throughput.
Hence, two threads (the main application MPI thread and a helper
communication thread) inject and receive the broadcast packets on the
collective network."

Model: per node, the *helper thread* (a service coroutine, representing the
second core) injects — the root injects payload, everyone else zeros — and
the main thread drains the combined stream into the application buffer.
This is the hardware envelope: the ``CollectiveNetwork (SMP)`` curves of
Figures 6 and 7.
"""

from __future__ import annotations

from typing import List

from repro.collectives.base import BcastInvocation
from repro.collectives.registry import register
from repro.hardware.tree import TreeOperation
from repro.sim.events import Event
from repro.telemetry.recorder import ROLE_RECEIVER


@register("bcast", modes=(1,))
class TreeSmpBcast(BcastInvocation):
    """SMP-mode hardware broadcast (main thread + helper comm thread)."""

    name = "tree-smp"
    network = "tree"

    def setup(self) -> None:
        machine = self.machine
        params = machine.params
        self.op: TreeOperation = machine.tree.operation(
            self.nbytes, params.pipeline_width
        )
        # Per-node gates opened when that node's rank enters the collective.
        self.node_entered: List[Event] = [
            Event(machine.engine) for _ in range(machine.nnodes)
        ]
        for node in range(machine.nnodes):
            machine.spawn(self._helper(node), name=f"tree-helper.n{node}")

    def _helper(self, node: int):
        """The helper communication thread: injects on the second core."""
        yield self.node_entered[node]
        yield self.machine.engine.timeout(
            self.machine.params.tree_inject_startup
        )
        for k in range(self.op.nchunks):
            yield from self.op.inject(node, k)

    def proc(self, rank: int):
        ctx = self.context(rank)
        machine = self.machine
        engine = machine.engine
        yield engine.timeout(machine.params.mpi_overhead)
        node = ctx.node_index
        tel = engine.telemetry
        if tel is not None:
            # The main MPI thread drains; the helper coroutine injects.
            tel.set_role(rank, node, ROLE_RECEIVER)
        self.node_entered[node].trigger(None)
        offset = 0
        for k in range(self.op.nchunks):
            size = self.op.chunks[k]
            t0 = engine.now
            yield from self.op.receive(node, k)
            if tel is not None:
                tel.copied(t0, engine.now, rank, node, ROLE_RECEIVER,
                           "tree.receive", size)
            if rank != self.root:
                data = self.payload_slice(offset, size)
                if data is not None:
                    self.write_result(rank, offset, data)
            offset += size
