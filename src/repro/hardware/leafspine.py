"""A two-tier leaf–spine Clos backend.

Geometry: hosts are packed ``leaf_width`` per leaf switch; every leaf
uplinks to all ``nspines`` spine switches.  Defaults (``leaf_width=4``,
``nspines=2``) give small study machines more hosts per leaf than the
fat-tree's pods, so intra-leaf and inter-leaf traffic mix differently —
the point of having a second switched topology to compare against.

Pass ``{"leaf_width": 8, "nspines": 4}`` through ``network_params`` to
change the shape.

Routing: intra-leaf traffic is ``host -> leaf -> host`` (2 hops);
inter-leaf traffic climbs to a spine and back down (4 hops), with the
spine chosen ECMP-style by the deterministic color-aware hash
``(src + dst + color) % nspines`` — same scheme as
:mod:`repro.hardware.fattree`, see there for why determinism matters.

Channels ride the shared :class:`~repro.hardware.network.NetworkBackend`
machinery, so the flow solver, fault schedules, and telemetry need no
leaf-spine-specific code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.hardware.network import NetworkBackend, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.machine import Machine


@register_backend
class LeafSpineNetwork(NetworkBackend):
    """Two-tier leaf–spine Clos with deterministic ECMP spine choice."""

    name = "leafspine"
    wires = ("ptp", "gi")

    def __init__(self, machine: "Machine", dims: Sequence[int],
                 wrap: bool = True, leaf_width: int = 0, nspines: int = 2):
        super().__init__(machine, dims, wrap=wrap)
        nnodes = 1
        for d in self.dims:
            if d < 1:
                raise ValueError(
                    f"leafspine dims must be positive ints, got {self.dims}"
                )
            nnodes *= d
        self.nnodes = nnodes
        #: hosts per leaf switch (default: 4, capped at the node count)
        self.leaf_width = leaf_width if leaf_width else min(4, nnodes)
        if self.leaf_width < 1:
            raise ValueError(f"leaf_width must be >= 1, got {leaf_width}")
        #: number of spine switches every leaf uplinks to
        self.nspines = nspines
        if self.nspines < 1:
            raise ValueError(f"nspines must be >= 1, got {nspines}")
        self.nleaves = (nnodes + self.leaf_width - 1) // self.leaf_width

    # -- placement ---------------------------------------------------------
    def leaf(self, index: int) -> int:
        """Host index -> leaf-switch number."""
        return index // self.leaf_width

    def coords(self, index: int) -> Tuple[int, int]:
        """Host index -> (leaf switch, port) placement."""
        return (self.leaf(index), index % self.leaf_width)

    def hop_distance(self, src: int, dst: int) -> int:
        """0 (same host), 2 (same leaf), or 4 (via a spine)."""
        if src == dst:
            return 0
        return 2 if self.leaf(src) == self.leaf(dst) else 4

    # -- routing -----------------------------------------------------------
    def route_channel_keys(self, color: int, src: int, dst: int
                           ) -> List[Tuple]:
        sleaf, dleaf = self.leaf(src), self.leaf(dst)
        if sleaf == dleaf:
            return [("hup", color, src), ("hdn", color, dst)]
        spine = (src + dst + color) % self.nspines
        return [
            ("hup", color, src),
            ("lup", color, sleaf, spine),
            ("ldn", color, spine, dleaf),
            ("hdn", color, dst),
        ]

    def channel_touches(self, key: Tuple, node: int) -> bool:
        """Host links match their host; leaf<->spine uplinks and
        downlinks match every host under that leaf."""
        kind = key[0]
        if kind in ("hup", "hdn"):
            return key[2] == node
        leaf = key[2] if kind == "lup" else key[3]
        return self.leaf(node) == leaf

    def _channel_name(self, key: Tuple) -> str:
        kind = key[0]
        if kind in ("hup", "hdn"):
            return f"leafspine.c{key[1]}.{kind}.n{key[2]}"
        if kind == "lup":
            _kind, color, leaf, spine = key
            return f"leafspine.c{color}.lup.l{leaf}.s{spine}"
        _kind, color, spine, leaf = key
        return f"leafspine.c{color}.ldn.s{spine}.l{leaf}"
