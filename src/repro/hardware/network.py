"""Pluggable network backends: the channel-owning interconnect interface.

The paper's intra-node techniques (shared-address, FIFO, DMA direct-put)
are topology-agnostic; only the *inter-node* stage of each collective
cares what wire the bytes ride.  This module extracts the interface that
:class:`~repro.hardware.torus.TorusNetwork` always half-exposed — lazy
per-color channel ownership (``iter_channels`` / ``channels_touching`` /
channel hooks) plus a point-to-point transfer primitive — into an
abstract :class:`NetworkBackend`, so a :class:`~repro.hardware.machine.
Machine` can be built over any registered interconnect:

* ``torus``     — the BG/P 3D torus (deposit-bit line broadcasts plus
  dimension-ordered point-to-point sends);
* ``fattree``   — a k-ary fat-tree with ECMP-style deterministic path
  coloring (:mod:`repro.hardware.fattree`);
* ``leafspine`` — a two-tier leaf–spine Clos (:mod:`repro.hardware.
  leafspine`).

Every backend creates its channels through the same
:class:`~repro.sim.flownet.FlowResource` machinery, so the max-min
fair-share solver, the fault schedules (``LinkFlap`` scales channels
found via ``channels_touching`` and catches late ones via channel
hooks), and the telemetry layer work unchanged on all of them.

Wires vs backends
-----------------

Algorithm capability metadata (``AlgorithmInfo.network``) names the
*wire* an algorithm rides, which is not always a constructible backend:

* ``"torus"`` — needs the deposit-bit ``line_broadcast`` primitive that
  only the torus provides;
* ``"tree"``  — the BG/P collective network (a per-node port pair, built
  by :class:`~repro.hardware.tree.CollectiveNetwork`);
* ``"gi"``    — the global interrupt network (barriers);
* ``"ptp"``   — plain point-to-point sends, available on every backend
  through :meth:`NetworkBackend.ptp_send`.

A backend declares the wires it can host in :attr:`NetworkBackend.wires`;
the harness refuses (with :class:`UnsupportedTopologyError`) to run an
algorithm whose wire the machine's backend does not provide.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.sim.events import Event
from repro.sim.flownet import KIND_LINKS, FlowResource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.machine import Machine
    from repro.msg.color import Color


class UnsupportedTopologyError(RuntimeError):
    """An algorithm/selection was asked for on a network it cannot ride.

    Deliberately *not* a :class:`KeyError`: a missing-topology condition
    is a configuration statement ("this machine has no torus"), not a
    lookup typo, and callers that retry on ``KeyError`` must not swallow
    it.
    """


#: wire tags that are not constructible backends (see module docstring)
AUX_WIRES: Tuple[str, ...] = ("tree", "gi", "ptp")

#: backend name -> module whose import registers the backend class.
#: Kept as a static table (like the collective-family registry) so
#: ``known_backends`` needs no imports and ``@register`` validation stays
#: cheap at class-decoration time.
_BACKEND_MODULES: Dict[str, str] = {
    "torus": "repro.hardware.torus",
    "fattree": "repro.hardware.fattree",
    "leafspine": "repro.hardware.leafspine",
}

_BACKENDS: Dict[str, type] = {}


def register_backend(cls: type) -> type:
    """Class decorator: add a :class:`NetworkBackend` subclass by its
    ``name`` to the backend registry."""
    name = getattr(cls, "name", None)
    if not name or name == "?":
        raise ValueError(
            f"{cls.__name__} must define a backend `name` attribute"
        )
    if name not in _BACKEND_MODULES:
        raise ValueError(
            f"backend {name!r} missing from the _BACKEND_MODULES table; "
            f"known: {sorted(_BACKEND_MODULES)}"
        )
    previous = _BACKENDS.get(name)
    if previous is not None and previous is not cls:
        raise ValueError(
            f"duplicate backend registration for {name!r}: "
            f"{previous.__name__} vs {cls.__name__}"
        )
    _BACKENDS[name] = cls
    return cls


def known_backends() -> List[str]:
    """Names of every constructible network backend."""
    return sorted(_BACKEND_MODULES)


def known_networks() -> List[str]:
    """Every valid ``AlgorithmInfo.network`` tag: backends plus wires."""
    return sorted(set(_BACKEND_MODULES) | set(AUX_WIRES))


def backend_class(name: str) -> type:
    """The registered backend class for ``name`` (imports its module).

    Lets policy layers inspect a backend's capabilities (e.g.
    :attr:`NetworkBackend.wires`) without constructing a machine.
    """
    if name not in _BACKEND_MODULES:
        raise UnsupportedTopologyError(
            f"unknown network backend {name!r}; known: {known_backends()}"
        )
    import importlib

    importlib.import_module(_BACKEND_MODULES[name])
    return _BACKENDS[name]


def create_network(
    name: str,
    machine: "Machine",
    dims: Sequence[int],
    wrap: bool = True,
    params: Optional[dict] = None,
) -> "NetworkBackend":
    """Construct the named backend for ``machine``.

    ``dims`` is the machine geometry (its product is the node count on
    non-torus backends); ``params`` passes backend-specific geometry
    knobs (e.g. ``{"k": 8}`` for the fat-tree) through to the backend
    constructor.
    """
    cls = backend_class(name)
    return cls(machine, tuple(dims), wrap=wrap, **(params or {}))


class NetworkBackend:
    """Abstract interconnect: topology, channel ownership, transfers.

    Subclasses provide the topology surface (:meth:`coords`,
    :meth:`hop_distance`; :meth:`ring_order` has a default), the routing
    surface
    (:meth:`route_channel_keys` + :meth:`channel_touches` +
    :meth:`_channel_name`), and set :attr:`nnodes` in their constructor.
    The channel machinery — lazy :class:`FlowResource` creation,
    creation hooks, fault-injection lookups — is shared here, and the
    generic :meth:`ptp_send` covers every backend whose routes reduce to
    a key list (the torus overrides it with its historical
    dimension-ordered implementation).
    """

    #: registry name of this backend ("torus", "fattree", ...)
    name: str = "?"
    #: algorithm wires this backend can host (see module docstring)
    wires: Tuple[str, ...] = ("ptp", "gi")

    def __init__(self, machine: "Machine", dims: Sequence[int],
                 wrap: bool = True):
        self.machine = machine
        #: geometry tuple the machine was configured with (reported in
        #: manifests/reprs; its semantics are backend-specific)
        self.dims: Tuple[int, ...] = tuple(int(d) for d in dims)
        self.wrap = bool(wrap)
        #: node count — set by the subclass constructor
        self.nnodes: int = 0
        self._channels: Dict[Tuple, FlowResource] = {}
        #: callbacks fired when a channel is lazily created (fault injectors
        #: use this so flaps also catch channels built mid-window)
        self._channel_hooks: List[Callable[[Tuple, FlowResource], None]] = []

    # -- capability -------------------------------------------------------
    def supports_wire(self, wire: str) -> bool:
        """Whether algorithms riding ``wire`` can run on this backend."""
        return wire in self.wires

    # -- topology (subclass responsibility) -------------------------------
    def coords(self, index: int) -> Tuple[int, ...]:
        """Node index -> placement coordinates (backend-specific tuple)."""
        raise NotImplementedError

    def hop_distance(self, src: int, dst: int) -> int:
        """Link hops between two nodes under this backend's routing."""
        raise NotImplementedError

    def ring_order(self, color: "Color", root: int) -> List[int]:
        """A deterministic ring over every node, starting at ``root``.

        The ring collectives (allgather/gather/scatter, the allreduce's
        reduce-scatter pipeline) only need *some* Hamiltonian order per
        color; each backend picks the one its topology makes cheap.  The
        torus snakes; this default, which the switched fabrics use, is the
        index-order ring rotated to ``root``, and the color's sign picks
        the direction, so paired colors stream in opposite directions.
        """
        n = self.nnodes
        return [(root + color.sign * i) % n for i in range(n)]

    # -- channels ---------------------------------------------------------
    def iter_channels(self) -> Iterator[Tuple[Tuple, FlowResource]]:
        """Yield ``(key, channel)`` for every channel created so far.

        Channels are created lazily, so the listing grows as collectives
        build their routes; injectors that must also catch future
        channels register an :meth:`add_channel_hook` callback.
        """
        yield from self._channels.items()

    def channel_touches(self, key: Tuple, node: int) -> bool:
        """Whether the channel under ``key`` carries traffic through
        ``node`` (backend-specific key interpretation)."""
        raise NotImplementedError

    def channels_touching(self, node: int) -> List[FlowResource]:
        """Existing channels whose route passes through ``node``."""
        return [
            channel for key, channel in self.iter_channels()
            if self.channel_touches(key, node)
        ]

    def add_channel_hook(
        self, hook: Callable[[Tuple, FlowResource], None]
    ) -> None:
        """Call ``hook(key, channel)`` whenever a channel is lazily created."""
        self._channel_hooks.append(hook)

    def remove_channel_hook(
        self, hook: Callable[[Tuple, FlowResource], None]
    ) -> None:
        """Deregister a channel-creation hook (no-op if absent)."""
        if hook in self._channel_hooks:
            self._channel_hooks.remove(hook)

    def _install_channel(self, key: Tuple, channel: FlowResource) -> None:
        self._channels[key] = channel
        for hook in self._channel_hooks:
            hook(key, channel)

    def _channel(self, key: Tuple) -> FlowResource:
        """The wire resource under ``key``, lazily created."""
        channel = self._channels.get(key)
        if channel is None:
            channel = self.machine.flownet.add_resource(
                self._channel_name(key), self._channel_capacity(key),
                KIND_LINKS,
            )
            self._install_channel(key, channel)
        return channel

    def _channel_name(self, key: Tuple) -> str:
        """Flow-resource name for the channel under ``key``."""
        raise NotImplementedError

    def _channel_capacity(self, key: Tuple) -> float:
        """Capacity (MB/s) of the channel under ``key``.

        Every backend's links default to the calibrated BG/P torus link
        bandwidth so cross-topology comparisons vary exactly one thing —
        the wiring, not the wire.
        """
        return self.machine.params.torus_link_bw

    # -- routing ----------------------------------------------------------
    def route_channel_keys(self, color: int, src: int, dst: int
                           ) -> List[Tuple]:
        """Channel keys of every link a ``src -> dst`` transfer traverses."""
        raise NotImplementedError

    # -- primitives --------------------------------------------------------
    def ptp_send(
        self,
        color: int,
        src: int,
        dst: int,
        nbytes: int,
        name: str = "ptp",
    ) -> Event:
        """Start a point-to-point DMA send; returns the delivery event.

        The flow holds the color channel of every link on the route
        (:meth:`route_channel_keys`) plus both endpoints' DMA and memory
        ports; delivery fires one per-hop cut-through latency after the
        source finishes injecting.
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
        keys = self.route_channel_keys(color, src, dst)
        for key in keys:
            channel = self._channel(key)
            usage[channel] = usage.get(channel, 0.0) + 1.0
        flow = machine.flownet.transfer(usage, nbytes, name=f"{name}.c{color}")
        hops = len(keys)
        hop_lat = machine.params.torus_hop_latency

        def on_complete(_value) -> None:
            engine.call_after(hops * hop_lat, delivered.trigger, None)

        flow.event.on_trigger(on_complete)
        return delivered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        geometry = "x".join(str(d) for d in self.dims)
        return f"<{type(self).__name__} {geometry} nnodes={self.nnodes}>"
