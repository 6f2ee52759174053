"""The intra-node stages shared by the collectives.

A chunk that lands at a node lands in one rank's buffer, and the node's
other ranks get it in one of the paper's two ways: the current schemes'
:class:`DmaDirectPutDistributor` (the DMA direct-puts it into their
buffers), or section IV-C's message counter, :class:`CounterBroadcast`
(they copy it out of that rank's mapped buffer).  :func:`wait_published`
is the chase step of every software-counter reader.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.events import AllOf
from repro.sim.resources import Store
from repro.sim.sync import SimCounter
from repro.telemetry.recorder import ROLE_DMA_WAIT


def wait_published(ctx, counter: SimCounter, count: int):
    """Rank ``ctx`` chases a software message counter up to ``count``.

    A counter that already reads ``count`` costs nothing.  Otherwise the
    rank parks on it (a ``waiting-on-counter`` stall) and, once it moves,
    pays one flag poll: the observation latency of its local poll loop.
    """
    if counter.value < count:
        engine = ctx.machine.engine
        t0 = engine.now
        yield counter.wait_for(count)
        tel = engine.telemetry
        if tel is not None:
            tel.stall(t0, engine.now, ctx.rank, ctx.node_index,
                      "waiting-on-counter")
        yield engine.timeout(ctx.machine.params.flag_cost)


class DmaDirectPutDistributor:
    """The intra-node 'fourth dimension' of the current (baseline) schemes.

    Every chunk that arrives at a node lands in one *holder* rank's buffer
    — the root on the root's node, local rank 0 elsewhere — and is then
    direct-put by the DMA into every other rank's application buffer on
    that node.  The DMA processes descriptors in FIFO order per injection
    queue, so one service coroutine per node drains the copies in arrival
    order (this also keeps the number of simultaneously active flows — and
    hence the fluid solver's component sizes — small).

    ``received[rank]`` (named ``r{rank}.{name}``) counts the bytes landed
    in each rank's buffer; each completed copy writes the chunk's payload
    slice into the rank's result through ``inv``'s hooks and advances it.
    A rank waits for its whole message in :meth:`wait_landed`.
    """

    def __init__(self, inv, total_chunks_per_node: int, name: str):
        self.inv = inv
        self.machine = inv.machine
        self.total = total_chunks_per_node
        self._holders: List[int] = []
        self._queues: Dict[int, Store] = {}
        machine = self.machine
        #: rank -> bytes landed in the rank's application buffer
        self.received: Dict[int, SimCounter] = {
            rank: SimCounter(machine.engine, name=f"r{rank}.{name}")
            for rank in range(machine.nprocs)
        }
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
        self.received[self._holders[node]].add(size)
        self.push(node, goff, size)

    def push(self, node: int, goff: int, size: int) -> None:
        """Enqueue a chunk for DMA distribution on ``node``."""
        queue = self._queues.get(node)
        if queue is not None:
            queue.put((goff, size))

    def wait_landed(self, ctx):
        """Rank ``ctx`` (a ``dma-wait`` core) waits until the whole
        message has landed in its buffer, then polls the DMA counter."""
        engine = self.machine.engine
        tel = engine.telemetry
        if tel is not None:
            tel.set_role(ctx.rank, ctx.node_index, ROLE_DMA_WAIT)
        t0 = engine.now
        yield self.received[ctx.rank].wait_for(self.inv.nbytes)
        if tel is not None:
            tel.stall(t0, engine.now, ctx.rank, ctx.node_index,
                      "waiting-on-counter")
        yield engine.timeout(self.machine.params.dma_counter_poll)

    def _land(self, rank: int, goff: int, size: int) -> None:
        inv = self.inv
        data = inv.payload_slice(goff, size)
        if data is not None:
            inv.write_result(rank, goff, data)
        self.received[rank].add(size)

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


class CounterBroadcast:
    """Section IV-C's message counter, the proposed schemes' intra-node
    stage: "The master after receiving the network data notifies other
    processes about the arrival of data.  The arrived data is copied out
    directly from the application buffer of the master process."

    Per node, for ``total`` chunks: ``mailbox`` (``n{node}.{mailbox}``)
    carries each chunk landed in the master's buffer (:meth:`arrive`) to
    the master core, which publishes it on the ``published`` software
    counter (``n{node}.{counter}``) and in ``arrived`` (:meth:`publish`).
    The peer cores chase the counter and copy every chunk out
    (:meth:`copy_out`), then advance ``completion`` (``n{node}.done``,
    :meth:`release`): "once this counter equals n-1 ... the master can go
    ahead and start using his buffer" (:meth:`wait_released`).
    """

    def __init__(self, inv, total: int, mailbox: str, counter: str):
        machine = inv.machine
        self.inv = inv
        self.machine = machine
        self.total = total
        nodes = range(machine.nnodes)
        self.mailbox: List[Store] = [
            Store(machine.engine, name=f"n{n}.{mailbox}") for n in nodes
        ]
        self.published: List[SimCounter] = [
            machine.make_counter(name=f"n{n}.{counter}", node=n)
            for n in nodes
        ]
        self.arrived: List[List[Tuple[int, int]]] = [[] for _ in nodes]
        self.completion: List[SimCounter] = [
            machine.make_counter(name=f"n{n}.done", node=n) for n in nodes
        ]

    def arrive(self, node: int, goff: int, size: int) -> None:
        """A chunk landed in ``node``'s master buffer."""
        self.mailbox[node].put((goff, size))

    def publish(self, node: int):
        """The master core of ``node``: observe each landed chunk (a DMA
        counter poll) and publish it on the software counter (a flag
        write)."""
        machine = self.machine
        engine = machine.engine
        params = machine.params
        for _ in range(self.total):
            goff, size = yield self.mailbox[node].get()
            yield engine.timeout(params.dma_counter_poll + params.flag_cost)
            self.arrived[node].append((goff, size))
            self.published[node].add(1)

    def wait_released(self, rank: int, node: int):
        """The master ``rank`` waits for every peer's completion before
        it reuses its buffer."""
        engine = self.machine.engine
        t0 = engine.now
        yield self.completion[node].wait_for(self.machine.ppn - 1)
        tel = engine.telemetry
        if tel is not None:
            tel.stall(t0, engine.now, rank, node, "waiting-on-counter")

    def copy_out(self, ctx, role: str, stage: str, flow: str, window=None):
        """Peer rank ``ctx``, a ``role`` core, chases the published counter
        and copies every chunk out of the master's buffer, one core copy
        (flow ``flow``, telemetry stage ``stage``) per chunk.

        ``window``, when given, is the ``(peer, buffer_key, nbytes)`` of
        the master's buffer, mapped before every copy: two system calls
        each time unless the window service caches the mapping (the Fig-8
        knob).
        """
        inv = self.inv
        engine = self.machine.engine
        node = ctx.node_index
        tel = engine.telemetry
        if tel is not None:
            tel.set_role(ctx.rank, node, role)
        published = self.published[node]
        arrived = self.arrived[node]
        for i in range(self.total):
            yield from wait_published(ctx, published, i + 1)
            goff, size = arrived[i]
            if window is not None:
                yield from ctx.windows.map_buffer(*window)
            t0 = engine.now
            yield from ctx.node.core_copy(size, name=flow)
            if tel is not None:
                tel.copied(t0, engine.now, ctx.rank, node, role, stage, size)
            data = inv.payload_slice(goff, size)
            if data is not None:
                inv.write_result(ctx.rank, goff, data)

    def release(self, node: int):
        """A peer core is done with ``node``'s master buffer (an atomic
        increment of the completion counter)."""
        yield self.machine.engine.timeout(self.machine.params.atomic_op_cost)
        self.completion[node].add(1)
