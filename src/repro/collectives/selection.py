"""Data-driven protocol selection (the paper's CCMI-style policy).

The BG/P stack picks a protocol per collective by message size and mode
("depending on the message size, either the Torus or the Collective
network based algorithms perform optimally", section V).  Instead of one
hand-written ``if`` ladder per collective, the policy lives in a single
table: per family, a list of mode rules, each carrying ordered
``(max_nbytes, algorithm)`` crossovers.

Semantics
---------

* A rule matches when the caller's ``ppn`` is in its mode tuple; ``None``
  is a wildcard that matches any remaining ppn (rules are tried in
  order).
* Within a rule, the first crossover with ``nbytes <= max_nbytes`` wins;
  ``None`` means "no upper bound" and terminates the ladder.
* ``nbytes`` is the family's natural size argument expressed in bytes:
  the message size for bcast, ``count * 8`` for the double-sum
  reductions, the per-rank block size for allgather.

The bcast column follows the historical ``select_bcast`` in quad mode:
short messages take the latency-optimized shared-memory tree scheme,
medium messages the core-specialized shared-address tree scheme, large
messages move to the torus where six links beat the single tree link;
SMP mode has no intra-node stage and uses the plain hardware protocols.
The core-specialized tree scheme needs four processes per node, so dual
mode moves from the shared-memory tree scheme straight to the
shared-address torus scheme past 8 KiB.
The allreduce and reduce columns encode section V-C (the shared-address
torus schemes are quad-mode algorithms and need large messages to
amortize the reduce-scatter pipeline); the allgather column follows the
section VII extension (the shared-address ring pays window mapping, so
tiny blocks stay on the current DMA scheme).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.hardware.network import UnsupportedTopologyError
from repro.util.units import KIB

#: one crossover: (inclusive upper bound in bytes or None, algorithm name)
Crossover = Tuple[Optional[int], str]
#: one mode rule: (ppn values or None = any remaining, crossover ladder)
ModeRule = Tuple[Optional[Tuple[int, ...]], Tuple[Crossover, ...]]

#: family -> ordered mode rules (first matching ppn wins)
SELECTION_TABLE: Dict[str, Tuple[ModeRule, ...]] = {
    "bcast": (
        ((1,), (
            (256 * KIB, "tree-smp"),
            (None, "torus-direct-put-smp"),
        )),
        ((2,), (
            (8 * KIB, "tree-shmem"),
            (None, "torus-shaddr"),
        )),
        (None, (
            (8 * KIB, "tree-shmem"),
            (256 * KIB, "tree-shaddr"),
            (None, "torus-shaddr"),
        )),
    ),
    "allreduce": (
        ((4,), (
            (64 * KIB, "allreduce-tree"),
            (None, "allreduce-torus-shaddr"),
        )),
        (None, (
            (None, "allreduce-tree"),
        )),
    ),
    "allgather": (
        ((1,), (
            (None, "allgather-ring-current"),
        )),
        (None, (
            (8 * KIB, "allgather-ring-current"),
            (None, "allgather-ring-shaddr"),
        )),
    ),
    "reduce": (
        ((4,), (
            (None, "reduce-torus-shaddr"),
        )),
        (None, (
            (None, "reduce-torus-current"),
        )),
    ),
}

#: the policy for switched point-to-point fabrics (fat-tree, leaf-spine):
#: no collective tree and no deposit-bit line broadcasts exist there, so
#: every family falls back to its ring/point-to-point schemes.  The
#: intra-node split survives unchanged — quad mode still prefers the
#: shared-address schemes once their window-mapping cost amortizes.
_PTP_SELECTION_TABLE: Dict[str, Tuple[ModeRule, ...]] = {
    "bcast": (
        (None, (
            (None, "ring-pipelined"),
        )),
    ),
    # The rectangle-schedule allreduces ride the torus wire; switched
    # fabrics get the ring-reduction + ring-broadcast pipeline instead.
    "allreduce": (
        (None, (
            (None, "allreduce-ring-pipelined"),
        )),
    ),
    "allgather": (
        ((1,), (
            (None, "allgather-ring-current"),
        )),
        (None, (
            (8 * KIB, "allgather-ring-current"),
            (None, "allgather-ring-shaddr"),
        )),
    ),
    "reduce": (
        ((4,), (
            (None, "reduce-torus-shaddr"),
        )),
        (None, (
            (None, "reduce-torus-current"),
        )),
    ),
}

#: network backend -> its selection table
SELECTION_TABLES: Dict[str, Dict[str, Tuple[ModeRule, ...]]] = {
    "torus": SELECTION_TABLE,
    "fattree": _PTP_SELECTION_TABLE,
    "leafspine": _PTP_SELECTION_TABLE,
}


#: family -> algorithm -> next protocol to try when it faults out.
#: The ladder exploits that the tiers fail independently: the
#: shared-address schemes die with window-mapping (TLB-slot) exhaustion,
#: the FIFO/shmem schemes ride software message counters and stall with
#: the publishing core, and the DMA/direct-put schemes use hardware byte
#: counters that keep counting through both — so walking
#: Shaddr -> FIFO -> DMA always ends on a protocol the fault cannot touch.
FALLBACK_TABLE: Dict[str, Dict[str, str]] = {
    "bcast": {
        "tree-shaddr": "tree-shmem",
        "tree-shmem": "tree-dma-fifo",
        "tree-dma-fifo": "tree-dma-direct-put",
        "torus-shaddr": "torus-fifo",
        "torus-fifo": "torus-direct-put",
        "tree-smp": "torus-direct-put-smp",
    },
    "allreduce": {
        "allreduce-torus-shaddr": "allreduce-tree",
        "allreduce-tree": "allreduce-torus-current",
    },
    "allgather": {
        "allgather-ring-shaddr": "allgather-ring-current",
    },
    "alltoall": {
        "alltoall-shift-shaddr": "alltoall-shift-current",
    },
    "gather": {
        "gather-ring-shaddr": "gather-ring-current",
    },
    "reduce": {
        "reduce-torus-shaddr": "reduce-torus-current",
    },
    "scatter": {
        "scatter-ring-shaddr": "scatter-ring-current",
    },
}


def selectable_families() -> List[str]:
    """Families with a selection policy (``select_protocol`` targets)."""
    return sorted(SELECTION_TABLE)


def candidate_algorithms(family: str, ppn: int,
                         network: str = "torus") -> List[str]:
    """Registered algorithms of ``family`` runnable at ``ppn`` on ``network``.

    The measured tie-break of the prediction service's ``select``
    endpoint (:mod:`repro.serve`) measures exactly this set and picks
    the fastest — the selection table above states the paper's *policy*,
    this lists the *candidates* the policy chose among.  Filtering
    mirrors the harness's own gates: the algorithm's registered modes
    must include ``ppn`` and its wire must exist on the network backend.
    """
    from repro.collectives.registry import iter_algorithms
    from repro.hardware.network import backend_class

    wires = backend_class(network).wires
    return [
        info.name
        for info in iter_algorithms(family)
        if info.supports_ppn(ppn) and info.network in wires
    ]


def next_fallback(family: str, name: str) -> Optional[str]:
    """The protocol to degrade to when ``family``/``name`` faults out.

    Returns ``None`` at the bottom of the ladder (nothing hardier left).
    Mode filtering is the caller's job — see
    :func:`repro.collectives.registry.fallback_chain`.
    """
    return FALLBACK_TABLE.get(family, {}).get(name)


def select_protocol(family: str, nbytes: int, ppn: int,
                    network: str = "torus") -> str:
    """Pick the algorithm name for ``family`` at ``nbytes`` under ``ppn``.

    Walks the ``network``'s table in :data:`SELECTION_TABLES`; see the
    module docstring for the matching semantics.  An unknown family is a
    :class:`KeyError` (a lookup typo); a known family with no candidates
    on the requested network — or an unknown network — is an
    :class:`~repro.hardware.network.UnsupportedTopologyError` (a
    configuration statement, never to be swallowed by KeyError handlers).
    """
    if network not in SELECTION_TABLES:
        raise UnsupportedTopologyError(
            f"no selection policy for network {network!r}; "
            f"known: {sorted(SELECTION_TABLES)}"
        )
    if family not in SELECTION_TABLE:
        raise KeyError(
            f"no selection policy for family {family!r}; "
            f"known: {selectable_families()}"
        )
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if ppn < 1:
        raise ValueError(f"ppn must be >= 1, got {ppn}")
    table = SELECTION_TABLES[network]
    if family not in table:
        raise UnsupportedTopologyError(
            f"family {family!r} has no registered candidates on network "
            f"{network!r}; families there: {sorted(table)}"
        )
    for modes, ladder in table[family]:
        if modes is not None and ppn not in modes:
            continue
        for max_nbytes, algorithm in ladder:
            if max_nbytes is None or nbytes <= max_nbytes:
                return algorithm
    raise AssertionError(
        f"selection table for {family!r} has no terminal rule"
    )  # pragma: no cover - table invariant
