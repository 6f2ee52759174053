"""The multi-color rectangle network schedule over the torus.

All torus broadcast variants share the same *inter-node* data movement (the
six-color rectangle algorithm of section V-A-1, Fig 2); they differ only in
the intra-node "fourth dimension".  :class:`TorusBcastNetwork` runs the
network side and exposes a per-chunk arrival hook that each variant's
intra-node scheme subscribes to.

Structure per color:

* the message is partitioned across colors (each color carries an exclusive
  contiguous byte range) and each partition is pipelined in chunks;
* every node that receives in phase *p* relays along the remaining phase
  dimensions; a dedicated *forwarder* service coroutine per (node, color,
  relay-dim) posts one line broadcast per chunk, in order, modelling the
  DMA's in-order injection FIFO per connection;
* chunk arrival at a node bumps that node's per-color and aggregate byte
  counters (the objects the paper's software message counters mirror) and
  fires the intra-node hook.

Everything is armed at construction but waits for :attr:`start` so that the
measured window begins at the post-barrier start of the collective.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.collectives.base import InvocationBase
from repro.msg.color import Color, partition_bytes, torus_colors
from repro.msg.pipeline import ChunkPlan
from repro.msg.routes import RectangleSchedule
from repro.sim.events import Event
from repro.sim.sync import SimCounter

#: hook signature: (node_index, color_id, global_offset, size)
ChunkHook = Callable[[int, int, int, int], None]


class TorusBcastNetwork:
    """Runs the rectangle schedule; variants hook intra-node handling."""

    def __init__(
        self,
        inv: InvocationBase,
        ncolors: int,
        chunk_bytes: int,
        external_root_feed: bool = False,
        align: int = 1,
    ):
        machine = inv.machine
        #: when True, the root's data becomes available color by color as an
        #: external producer (e.g. the allreduce's ring reduction) feeds it
        #: via :meth:`feed_root`, pipelining reduction into broadcast.
        self.external_root_feed = external_root_feed
        self.inv = inv
        self.machine = machine
        self.torus = machine.torus
        self.engine = machine.engine
        self.root_node = machine.rank_to_node(inv.root)
        # A mesh supports only three edge-disjoint routes (section V-A-1).
        if not machine.torus.wrap:
            ncolors = min(ncolors, 3)
        self.colors: List[Color] = torus_colors(ncolors)
        parts = partition_bytes(inv.nbytes, ncolors, align=align)
        offsets = [sum(parts[:i]) for i in range(ncolors)]
        self.plans: List[Tuple[int, ChunkPlan]] = [
            (offsets[i], ChunkPlan.build(parts[i], chunk_bytes))
            for i in range(ncolors)
        ]
        self.total_chunks_per_node = sum(
            plan.nchunks for _off, plan in self.plans
        )
        #: gate opened by the harness when the measured window starts
        self.start = Event(self.engine)
        #: per-node aggregate bytes landed (all colors)
        self.node_received: List[SimCounter] = [
            SimCounter(self.engine, name=f"n{n}.rcvd")
            for n in range(machine.nnodes)
        ]
        #: per-(color, node) bytes of that color's partition landed
        self._color_received: Dict[Tuple[int, int], SimCounter] = {}
        self._hooks: List[ChunkHook] = []
        self._deliveries: Dict[Tuple[int, int, int], Event] = {}
        self._build()

    # -- public -----------------------------------------------------------
    def on_chunk(self, hook: ChunkHook) -> None:
        """Subscribe an intra-node hook fired at every chunk arrival."""
        self._hooks.append(hook)

    def open(self) -> None:
        """Open the start gate (called once, at measured-window start)."""
        self.start.trigger(None)

    def feed_root(self, color_id: int, goff: int, size: int) -> None:
        """External producer: the ``size`` bytes of this color's partition
        at message offset ``goff`` are now in the root node's master buffer
        and may be broadcast (only with ``external_root_feed``)."""
        if not self.external_root_feed:
            raise RuntimeError("network was not built with external_root_feed")
        data = self.inv.payload_slice(goff, size)
        if data is not None:
            master = self.machine.node_ranks(self.root_node)[0]
            self.inv.write_result(master, goff, data)
        self._color_received[(color_id, self.root_node)].add(size)

    # -- construction ----------------------------------------------------
    def _build(self) -> None:
        machine = self.machine
        for color, (color_off, plan) in zip(self.colors, self.plans):
            if plan.nchunks == 0:
                continue
            sched = RectangleSchedule(self.torus, self.root_node, color)
            for node in range(machine.nnodes):
                self._color_received[(color.id, node)] = SimCounter(
                    self.engine, name=f"c{color.id}.n{node}.rcvd"
                )
            for node in range(machine.nnodes):
                role = sched.role(node)
                if role.receive_phase >= 0:
                    for k in range(plan.nchunks):
                        self._deliveries[(color.id, k, node)] = Event(self.engine)
                    machine.spawn(
                        self._receiver(color, color_off, plan, node),
                        name=f"rx.c{color.id}.n{node}",
                    )
                else:
                    machine.spawn(
                        self._root_source(color, color_off, plan, node),
                        name=f"src.c{color.id}.n{node}",
                    )
                for _phase, dim in role.relays:
                    machine.spawn(
                        self._forwarder(color, sched, plan, node, dim),
                        name=f"fw.c{color.id}.n{node}.d{dim}",
                    )

    # -- service coroutines --------------------------------------------------
    def _announce(self, node: int, color: Color, goff: int, size: int) -> None:
        self.node_received[node].add(size)
        for hook in self._hooks:
            hook(node, color.id, goff, size)

    def _root_source(self, color: Color, color_off: int, plan: ChunkPlan,
                     node: int):
        """Announce the root's partition: all at start (broadcast), or chunk
        by chunk as an external producer feeds it (pipelined allreduce)."""
        yield self.start
        received = self._color_received[(color.id, node)]
        if self.external_root_feed:
            for _k, off, size in plan.slices():
                yield received.wait_for(off + size)
                self._announce(node, color, color_off + off, size)
        else:
            received.add(plan.total)
            for _k, off, size in plan.slices():
                self._announce(node, color, color_off + off, size)

    def _receiver(self, color: Color, color_off: int, plan: ChunkPlan,
                  node: int):
        """Marks chunk arrivals at a non-root node for one color."""
        yield self.start
        master = self.machine.node_ranks(node)[0]
        for k, off, size in plan.slices():
            yield self._deliveries[(color.id, k, node)]
            self._color_received[(color.id, node)].add(size)
            data = self.inv.payload_slice(color_off + off, size)
            if data is not None:
                self.inv.write_result(master, color_off + off, data)
            self._announce(node, color, color_off + off, size)

    def _forwarder(self, color: Color, sched: RectangleSchedule,
                   plan: ChunkPlan, node: int, dim: int):
        """Posts this node's line broadcasts along ``dim``, chunk by chunk.

        On a torus one deposit broadcast per chunk covers the ring line; on
        a mesh the relay issues one in each direction.
        """
        yield self.start
        received = self._color_received[(color.id, node)]
        params = self.machine.params
        signs = sched.relay_signs()
        for k, off, size in plan.slices():
            yield received.wait_for(off + size)
            done_events = []
            for sign in signs:
                # DMA descriptor injection for this connection.
                yield self.engine.timeout(params.dma_startup)
                transfer = self.torus.line_broadcast(
                    color.id, node, dim, sign, size,
                    name=f"lb.k{k}.n{node}.d{dim}",
                )
                for receiver, event in transfer.delivered.items():
                    key = (color.id, k, receiver)
                    event.on_trigger(
                        lambda _v, key=key:
                        self._deliveries[key].trigger(None)
                    )
                done_events.append(transfer.done)
            # In-order injection per connection: wait for the injections to
            # finish before posting the next chunk on this dimension.
            for done in done_events:
                yield done
