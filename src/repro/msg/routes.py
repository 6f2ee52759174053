"""Multi-color route schedules on the torus.

:class:`RectangleSchedule` captures Fig 2 generalized to 3D: for a color
with dimension order ``(d1, d2, d3)`` rooted at ``root``,

* phase 0 — the root line-broadcasts along ``d1`` (its "line");
* phase 1 — every node on the root's ``d1``-line (root included)
  line-broadcasts along ``d2``, covering the root's ``d1 x d2`` plane;
* phase 2 — every node in that plane line-broadcasts along ``d3``,
  covering the full torus.

A node's *role* for a color is the phase in which it first receives data
plus the list of dimensions along which it must relay.  Degenerate
dimensions (length 1) contribute no phase.

``ring_order`` builds the snake (Hamiltonian) ring used by the allreduce's
pipelined ring reduction; each color snakes through the torus in its own
dimension order so the three rings use disjoint link classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from repro.msg.color import Color

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.torus import TorusNetwork


@dataclass(frozen=True)
class NodeRole:
    """One node's duties for one color of a rectangle broadcast."""

    #: phase in which this node first holds the data (-1 for the root)
    receive_phase: int
    #: dimensions along which the node must line-broadcast, with the phase
    #: index each relay belongs to: list of (phase, dim)
    relays: Tuple[Tuple[int, int], ...]


class RectangleSchedule:
    """The rectangle (multi-color spanning) broadcast schedule for one color."""

    def __init__(self, torus: "TorusNetwork", root: int, color: Color):
        self.torus = torus
        self.root = root
        self.color = color
        # Effective phases: skip dimensions of length 1.
        self.phase_dims: List[int] = [
            d for d in color.dim_order if torus.dims[d] > 1
        ]
        self.sign = color.sign

    def relay_signs(self) -> List[int]:
        """Directions a relay must broadcast in to cover its line.

        On a torus one deposit broadcast covers the whole ring line; on a
        mesh the walk stops at the boundary, so a relay issues broadcasts
        in *both* directions (which is why a mesh supports only three
        edge-disjoint routes where a torus supports six).
        """
        if self.torus.wrap:
            return [self.sign]
        return [1, -1]

    @property
    def nphases(self) -> int:
        return len(self.phase_dims)

    def _matches_root_through(self, node: int, upto: int) -> bool:
        """True if node and root agree on every dim *not* traversed in
        phases ``0..upto`` (i.e. the node is reached by phase ``upto``)."""
        nc = self.torus.coords(node)
        rc = self.torus.coords(self.root)
        traversed = set(self.phase_dims[: upto + 1])
        return all(
            nc[d] == rc[d] for d in range(3) if d not in traversed
        )

    def role(self, node: int) -> NodeRole:
        """Compute the :class:`NodeRole` of ``node`` for this color."""
        if node == self.root:
            relays = tuple(
                (phase, dim) for phase, dim in enumerate(self.phase_dims)
            )
            return NodeRole(receive_phase=-1, relays=relays)
        for phase in range(self.nphases):
            if self._matches_root_through(node, phase):
                relays = tuple(
                    (p, self.phase_dims[p])
                    for p in range(phase + 1, self.nphases)
                )
                return NodeRole(receive_phase=phase, relays=relays)
        raise AssertionError(
            f"node {node} unreachable by color {self.color.id}"
        )


def ring_order(torus: "TorusNetwork", color: Color, root: int) -> List[int]:
    """Snake (boustrophedon) ring through every node, starting at ``root``.

    The snake traverses the color's first dimension fastest, reversing
    direction on alternate rows/planes so that consecutive ring positions
    are torus neighbours (except for occasional wrap edges, which are still
    single hops on the torus).  The ring is rotated so ``root`` sits at
    position 0.
    """
    d1, d2, d3 = color.dim_order
    dims = torus.dims
    order: List[int] = []
    for k in range(dims[d3]):
        for j_step in range(dims[d2]):
            j = j_step if k % 2 == 0 else dims[d2] - 1 - j_step
            row_reversed = (j_step + k) % 2 == 1
            for i_step in range(dims[d1]):
                i = i_step if not row_reversed else dims[d1] - 1 - i_step
                coords = [0, 0, 0]
                coords[d1], coords[d2], coords[d3] = i, j, k
                order.append(torus.index(tuple(coords)))
    # Rotate so the root is first.
    pivot = order.index(root)
    return order[pivot:] + order[:pivot]
