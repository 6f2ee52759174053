"""Helpers shared by several collective algorithms."""

from __future__ import annotations

from typing import Dict, List

from repro.sim.events import AllOf
from repro.sim.resources import Store


class DmaDirectPutDistributor:
    """The intra-node 'fourth dimension' of the current (baseline) schemes.

    Every chunk that arrives at a node lands in one *holder* rank's buffer
    — the root on the root's node, local rank 0 elsewhere — and is then
    direct-put by the DMA into every other rank's application buffer on
    that node.  The DMA processes descriptors in FIFO order per injection
    queue, so one service coroutine per node drains the copies in arrival
    order (this also keeps the number of simultaneously active flows — and
    hence the fluid solver's component sizes — small).

    ``inv`` provides ``rank_received`` (rank -> bytes-landed counter) and
    the payload hooks: each completed copy writes the chunk's payload
    slice into the rank's result and advances its counter.
    """

    def __init__(self, inv, total_chunks_per_node: int):
        self.inv = inv
        self.machine = inv.machine
        self.total = total_chunks_per_node
        self._holders: List[int] = []
        self._queues: Dict[int, Store] = {}
        machine = self.machine
        for node in range(machine.nnodes):
            ranks = machine.node_ranks(node)
            holder = inv.root if inv.root in ranks else ranks[0]
            self._holders.append(holder)
            peers = [rank for rank in ranks if rank != holder]
            if not peers:
                continue
            queue = Store(machine.engine, name=f"n{node}.dput")
            self._queues[node] = queue
            machine.spawn(
                self._copier(node, queue, peers), name=f"dput.n{node}"
            )

    def arrive(self, node: int, goff: int, size: int) -> None:
        """A chunk landed in ``node``'s holder: count it there and queue
        its direct puts to the node's other ranks."""
        self.inv.rank_received[self._holders[node]].add(size)
        self.push(node, goff, size)

    def push(self, node: int, goff: int, size: int) -> None:
        """Enqueue a chunk for DMA distribution on ``node``."""
        queue = self._queues.get(node)
        if queue is not None:
            queue.put((goff, size))

    def _land(self, rank: int, goff: int, size: int) -> None:
        inv = self.inv
        data = inv.payload_slice(goff, size)
        if data is not None:
            inv.write_result(rank, goff, data)
        inv.rank_received[rank].add(size)

    def _copier(self, node: int, queue: Store, peers: List[int]):
        machine = self.machine
        dma = machine.dma[node]
        for _ in range(self.total):
            goff, size = yield queue.get()
            flows = [
                dma.local_copy_flow(size, name=f"dput.r{peer}")
                for peer in peers
            ]
            for peer, flow in zip(peers, flows):
                flow.event.on_trigger(
                    lambda _v, peer=peer, goff=goff, size=size:
                    self._land(peer, goff, size)
                )
            yield AllOf(machine.engine, [f.event for f in flows])
