"""A k-ary fat-tree backend with ECMP-style deterministic path coloring.

Geometry (the classic three-tier k-ary fat-tree of Al-Fares et al.):

* ``k`` pods, each with ``k/2`` edge switches and ``k/2`` aggregation
  switches; ``(k/2)**2`` core switches; ``k**3 / 4`` host slots.
* Host ``h`` sits under edge switch ``(h // radix) % radix`` of pod
  ``h // radix**2`` where ``radix = k // 2``.

``k`` is derived as the smallest even value whose host capacity covers
the machine's node count (the geometry tuple's product), so the familiar
``--dims 2x2x2`` spellings keep working; pass ``{"k": 8}`` through
``network_params`` to pin it.

Routing is the fat-tree's standard up/down ECMP: a packet climbs
``host -> edge [-> agg [-> core]]`` until it reaches a common ancestor,
then descends.  Real fabrics hash flows across the ``radix`` equal-cost
aggregation/core choices; we make that hash *deterministic and
color-aware* — ``(src + dst + color) % radix`` — so (a) a given
(src, dst, color) triple always rides the same switches (reproducible
contention), and (b) the multi-color collectives spread their colors
across distinct equal-cost paths, the ECMP analogue of the torus'
edge-disjoint color routes.

Every link is a lazily-created :class:`~repro.sim.flownet.FlowResource`
channel owned by the :class:`~repro.hardware.network.NetworkBackend`
base, so the flow solver, ``LinkFlap`` fault schedules, and telemetry
treat fat-tree links exactly like torus links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.hardware.network import NetworkBackend, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.machine import Machine


def _fit_k(nnodes: int) -> int:
    """Smallest even ``k`` whose ``k**3 / 4`` host slots cover ``nnodes``."""
    k = 2
    while k * k * k // 4 < nnodes:
        k += 2
    return k


@register_backend
class FatTreeNetwork(NetworkBackend):
    """Three-tier k-ary fat-tree with deterministic ECMP coloring."""

    name = "fattree"
    wires = ("ptp", "gi")

    def __init__(self, machine: "Machine", dims: Sequence[int],
                 wrap: bool = True, k: int = 0):
        super().__init__(machine, dims, wrap=wrap)
        nnodes = 1
        for d in self.dims:
            if d < 1:
                raise ValueError(
                    f"fattree dims must be positive ints, got {self.dims}"
                )
            nnodes *= d
        if k:
            if k % 2 or k < 2:
                raise ValueError(f"fat-tree k must be even and >= 2, got {k}")
            if k * k * k // 4 < nnodes:
                raise ValueError(
                    f"fat-tree k={k} holds {k * k * k // 4} hosts, "
                    f"need {nnodes}"
                )
            self.k = k
        else:
            self.k = _fit_k(nnodes)
        #: equal-cost choices per tier (edge->agg and agg->core fan-out)
        self.radix = self.k // 2
        self.nnodes = nnodes

    # -- placement ---------------------------------------------------------
    def pod(self, index: int) -> int:
        """Host index -> pod number."""
        return index // (self.radix * self.radix)

    def edge(self, index: int) -> int:
        """Host index -> edge-switch number within its pod."""
        return (index // self.radix) % self.radix

    def coords(self, index: int) -> Tuple[int, int, int]:
        """Host index -> (pod, edge switch, port) placement."""
        return (self.pod(index), self.edge(index), index % self.radix)

    def hop_distance(self, src: int, dst: int) -> int:
        """Link hops of the up/down route: 0, 2 (same edge), 4 (same
        pod), or 6 (via core)."""
        if src == dst:
            return 0
        if self.pod(src) == self.pod(dst):
            if self.edge(src) == self.edge(dst):
                return 2
            return 4
        return 6

    # -- routing -----------------------------------------------------------
    def _ecmp(self, color: int, src: int, dst: int) -> int:
        """Deterministic equal-cost choice for (src, dst, color)."""
        return (src + dst + color) % self.radix

    def route_channel_keys(self, color: int, src: int, dst: int
                           ) -> List[Tuple]:
        spod, sedge = self.pod(src), self.edge(src)
        dpod, dedge = self.pod(dst), self.edge(dst)
        if spod == dpod and sedge == dedge:
            # host -> edge -> host
            return [("hup", color, src), ("hdn", color, dst)]
        choice = self._ecmp(color, src, dst)
        if spod == dpod:
            # host -> edge -> agg -> edge -> host (within the pod)
            return [
                ("hup", color, src),
                ("eup", color, spod, sedge, choice),
                ("edn", color, dpod, choice, dedge),
                ("hdn", color, dst),
            ]
        # host -> edge -> agg -> core -> agg -> edge -> host
        return [
            ("hup", color, src),
            ("eup", color, spod, sedge, choice),
            ("aup", color, spod, choice),
            ("adn", color, dpod, choice),
            ("edn", color, dpod, choice, dedge),
            ("hdn", color, dst),
        ]

    def channel_touches(self, key: Tuple, node: int) -> bool:
        """Whether the link under ``key`` carries ``node``'s traffic.

        Host links match their host; edge<->agg links match every host
        under that edge switch; agg<->core links match every host in the
        pod (a flap there degrades the whole pod's inter-pod paths).
        """
        kind = key[0]
        if kind in ("hup", "hdn"):
            return key[2] == node
        if kind in ("eup", "edn"):
            _kind, _color, pod, first, second = key
            edge = first if kind == "eup" else second
            return self.pod(node) == pod and self.edge(node) == edge
        # aup / adn
        return self.pod(node) == key[2]

    def _channel_name(self, key: Tuple) -> str:
        kind = key[0]
        if kind in ("hup", "hdn"):
            return f"fattree.c{key[1]}.{kind}.n{key[2]}"
        if kind == "eup":
            _kind, color, pod, edge, agg = key
            return f"fattree.c{color}.eup.p{pod}.e{edge}.a{agg}"
        if kind == "edn":
            _kind, color, pod, agg, edge = key
            return f"fattree.c{color}.edn.p{pod}.a{agg}.e{edge}"
        _kind, color, pod, agg = key
        return f"fattree.c{color}.{kind}.p{pod}.a{agg}"
