"""The 3D torus interconnect.

Topology: an ``Lx x Ly x Lz`` torus; every node has six links (X+, X-, Y+,
Y-, Z+, Z-) of :attr:`BGPParams.torus_link_bw` (425 MB/s) each.

Two hardware transfer primitives are modelled:

``line_broadcast``
    A deposit-bit line broadcast: the source injects packets along one
    dimension and every node on the line receives a copy as the packets
    stream through (section III-A).  The multi-color rectangle algorithms
    (Fig 2) are phases of line broadcasts.

``ptp_send``
    A plain point-to-point send along a dimension-ordered route, used by
    the ring phases of the allreduce.

Color channels
--------------
The collective algorithms of [2] (Faraj et al., Hot Interconnects'09) use
three/six *edge-disjoint* routes ("colors"); edge-disjointness is an input
assumption of this paper, not a contribution (section V-A-1 simply cites
it).  We therefore give each color its own set of per-line channel
resources: flows of different colors never contend on the wire — exactly
the guarantee the route construction provides — while flows of the *same*
color on the same line (successive pipeline chunks, competing phases) do
contend and serialize at 425 MB/s.  Aggregate per-node wire throughput is
still bounded by six colors x 425 MB/s = the physical six-link limit, and
every transfer additionally consumes the node-local DMA and memory ports,
which is where this paper's contention story happens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.hardware.network import NetworkBackend, register_backend
from repro.sim.events import Event
from repro.sim.flownet import Flow, FlowResource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.machine import Machine
    from repro.msg.color import Color

Coords = Tuple[int, int, int]


class LineTransfer:
    """Handle for one in-flight deposit-bit line broadcast.

    ``delivered[node_index]`` is an event firing when the *last byte* of the
    transfer has landed at that node (source completion plus per-hop
    cut-through latency).  ``done`` fires when the source finishes injecting.
    """

    def __init__(self, flow: Flow, delivered: Dict[int, Event], done: Event):
        self.flow = flow
        self.delivered = delivered
        self.done = done


@register_backend
class TorusNetwork(NetworkBackend):
    """The 3D torus: topology bookkeeping plus transfer primitives."""

    name = "torus"
    #: the torus hosts every wire: its own deposit-bit line broadcasts,
    #: plain point-to-point sends, and the BG/P tree/GI networks the
    #: Machine builds alongside it
    wires = ("torus", "ptp", "tree", "gi")

    def __init__(self, machine: "Machine", dims: Coords, wrap: bool = True):
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError(f"torus dims must be 3 positive ints, got {dims}")
        # wrap: True = torus (wraparound links), False = 3D mesh.  The
        # paper's multi-color algorithms use six edge-disjoint routes on a
        # torus but only three on a mesh (section V-A-1).
        super().__init__(machine, dims, wrap=wrap)
        self.nnodes = dims[0] * dims[1] * dims[2]

    # -- topology -----------------------------------------------------------
    def coords(self, index: int) -> Coords:
        """Node index -> (x, y, z) coordinates (x fastest)."""
        lx, ly, _lz = self.dims
        x = index % lx
        y = (index // lx) % ly
        z = index // (lx * ly)
        return (x, y, z)

    def index(self, coords: Coords) -> int:
        """(x, y, z) coordinates -> node index."""
        lx, ly, lz = self.dims
        x, y, z = (coords[0] % lx, coords[1] % ly, coords[2] % lz)
        return x + y * lx + z * lx * ly

    def line_nodes(self, index: int, dim: int, sign: int) -> List[int]:
        """Nodes along the line through ``index`` in hop order (src excluded).

        On a torus the whole ring line is covered from either direction; on
        a mesh the walk stops at the boundary, so covering a line takes
        broadcasts in both directions.
        """
        length = self.dims[dim]
        if self.wrap:
            return [
                self._offset(index, dim, sign * h) for h in range(1, length)
            ]
        position = self.coords(index)[dim]
        if sign > 0:
            steps = length - 1 - position
        else:
            steps = position
        return [
            self._offset(index, dim, sign * h) for h in range(1, steps + 1)
        ]

    def _offset(self, index: int, dim: int, delta: int) -> int:
        c = list(self.coords(index))
        c[dim] = (c[dim] + delta) % self.dims[dim]
        return self.index(tuple(c))

    def hop_distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes (dimension-ordered routing)."""
        sc, dc = self.coords(src), self.coords(dst)
        total = 0
        for d in range(3):
            delta = abs(sc[d] - dc[d])
            if self.wrap:
                delta = min(delta, self.dims[d] - delta)
            total += delta
        return total

    def ring_order(self, color: "Color", root: int) -> List[int]:
        """The color's boustrophedon snake ring, rotated to ``root``."""
        from repro.msg.routes import ring_order

        return ring_order(self, color, root)

    # -- channels -----------------------------------------------------------
    def channel_touches(self, key: Tuple, node: int) -> bool:
        """Whether the channel under ``key`` carries traffic through ``node``.

        Keys are ``("line", color, dim, sign, line_id)`` for deposit-bit
        line channels and ``("seg", color, dim, sign, src)`` for
        point-to-point segment channels.  A line channel matches when the
        node sits on the line (all fixed
        coordinates equal); a segment channel matches when the node is the
        segment's source.
        """
        kind = key[0]
        if kind == "line":
            _kind, _color, dim, _sign, line_id = key
            coords = self.coords(node)
            return all(
                line_id[d] == coords[d] for d in range(3) if d != dim
            )
        return key[4] == node

    def _channel_name(self, key: Tuple) -> str:
        kind, color, dim, sign, where = key
        arrow = "+" if sign > 0 else "-"
        if kind == "line":
            return f"torus.c{color}.d{dim}{arrow}.{where}"
        return f"torus.c{color}.seg.n{where}.d{dim}{arrow}"

    def _line_id(self, index: int, dim: int) -> Tuple:
        """Identifier of the line through ``index`` along ``dim``."""
        c = list(self.coords(index))
        c[dim] = -1  # collapse the traversed coordinate
        return tuple(c)

    # -- primitives --------------------------------------------------------
    def line_broadcast(
        self,
        color: int,
        src: int,
        dim: int,
        sign: int,
        nbytes: int,
        name: str = "linebcast",
    ) -> LineTransfer:
        """Start a deposit-bit broadcast of ``nbytes`` along a line.

        The flow consumes: the source's DMA and memory ports (packet
        injection), the line's color channel, and every receiver's DMA and
        memory ports (packet reception) — receivers under local pressure
        therefore backpressure the whole line, as the hardware's token flow
        control does.
        """
        if sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {sign}")
        if not 0 <= dim < 3:
            raise ValueError(f"dim must be 0..2, got {dim}")
        machine = self.machine
        engine = machine.engine
        receivers = self.line_nodes(src, dim, sign)
        done = Event(engine)
        delivered: Dict[int, Event] = {r: Event(engine) for r in receivers}
        if not receivers or nbytes == 0:
            done.trigger(engine.now)
            for event in delivered.values():
                event.trigger(engine.now)
            flow = machine.flownet.transfer({}, 0, name=name)
            return LineTransfer(flow, delivered, done)

        src_node = machine.nodes[src]
        usage: Dict[FlowResource, float] = {
            src_node.dma: 1.0,
            src_node.mem: 1.0,
            self._channel(
                ("line", color, dim, sign, self._line_id(src, dim))
            ): 1.0,
        }
        for r in receivers:
            node = machine.nodes[r]
            usage[node.dma] = usage.get(node.dma, 0.0) + 1.0
            usage[node.mem] = usage.get(node.mem, 0.0) + 1.0
        flow = machine.flownet.transfer(
            usage, nbytes, name=f"{name}.c{color}"
        )
        hop = machine.params.torus_hop_latency

        def on_complete(_value) -> None:
            done.trigger(engine.now)
            for h, r in enumerate(receivers, start=1):
                engine.call_after(h * hop, delivered[r].trigger, None)

        flow.event.on_trigger(on_complete)
        return LineTransfer(flow, delivered, done)

    def ptp_send(
        self,
        color: int,
        src: int,
        dst: int,
        nbytes: int,
        name: str = "ptp",
    ) -> Event:
        """Start a point-to-point DMA send; returns the delivery event.

        Routing is dimension-ordered; the flow holds the color channel of
        every traversed line segment plus both endpoints' DMA/memory ports.
        """
        machine = self.machine
        engine = machine.engine
        delivered = Event(engine)
        if src == dst or nbytes == 0:
            delivered.trigger(engine.now)
            return delivered
        src_node, dst_node = machine.nodes[src], machine.nodes[dst]
        usage: Dict[FlowResource, float] = {
            src_node.dma: 1.0,
            src_node.mem: 1.0,
            dst_node.dma: 1.0,
            dst_node.mem: 1.0,
        }
        # Dimension-ordered route: one *per-segment* channel per traversed
        # dimension.  Point-to-point segments starting at different nodes of
        # the same line use distinct physical links (e.g. the concurrent
        # neighbour sends of a pipelined ring), so — unlike line broadcasts,
        # which occupy the whole line — each segment gets its own channel,
        # keyed by its start node.
        hops = 0
        current = src
        for dim in range(3):
            sc, dc = self.coords(current)[dim], self.coords(dst)[dim]
            if sc == dc:
                continue
            length = self.dims[dim]
            if self.wrap:
                forward = (dc - sc) % length
                backward = (sc - dc) % length
                sign = 1 if forward <= backward else -1
                hops += min(forward, backward)
            else:
                sign = 1 if dc > sc else -1
                hops += abs(dc - sc)
            channel = self._channel(("seg", color, dim, sign, current))
            usage[channel] = usage.get(channel, 0.0) + 1.0
            c = list(self.coords(current))
            c[dim] = dc
            current = self.index(tuple(c))
        flow = machine.flownet.transfer(usage, nbytes, name=f"{name}.c{color}")
        hop_lat = machine.params.torus_hop_latency

        def on_complete(_value) -> None:
            engine.call_after(hops * hop_lat, delivered.trigger, None)

        flow.event.on_trigger(on_complete)
        return delivered
