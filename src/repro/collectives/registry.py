"""One registry for every collective algorithm, with capability metadata.

The BG/P stack glues its algorithms into MPICH through a single CCMI
layer; this module is that layer's reproduction-side analogue.  Each
invocation class self-registers at import time via the :func:`register`
decorator, tagging itself with capability metadata (family, network,
supported ppn modes, whether it can carry payload bytes, whether it
needs shared-address window mappings).  Lookup goes through exactly two
functions:

* :func:`get_algorithm`\\ ``(family, name)`` -> invocation class
* :func:`list_algorithms`\\ ``(family)`` -> sorted names

plus :func:`algorithm_info` / :func:`iter_algorithms` for the metadata
itself.  Family modules are imported lazily on first lookup, so import
order stays simple and ``import repro`` stays cheap:
``tests/test_import_set.py`` checks that neither it nor a timing-only
point of any registered algorithm loads numpy.

Protocol selection (the message-size policy of section V) lives in
:mod:`repro.collectives.selection`; :func:`select_protocol` is re-exported
here for convenience.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.collectives.selection import (
    next_fallback,
    select_protocol,
    selectable_families,
)
from repro.hardware.network import known_networks

__all__ = [
    "ALL_MODES",
    "AlgorithmInfo",
    "register",
    "get_algorithm",
    "list_algorithms",
    "algorithm_info",
    "iter_algorithms",
    "families",
    "fallback_chain",
    "next_fallback",
    "select_protocol",
    "selectable_families",
]

#: every ppn a BG/P node supports (SMP / DUAL / QUAD)
ALL_MODES: Tuple[int, ...] = (1, 2, 4)

#: family -> module whose import registers the family's algorithms
_FAMILY_MODULES: Dict[str, str] = {
    "bcast": "repro.collectives.bcast",
    "allreduce": "repro.collectives.allreduce",
    "allgather": "repro.collectives.allgather",
    "alltoall": "repro.collectives.alltoall",
    "barrier": "repro.collectives.barrier",
    "gather": "repro.collectives.gather",
    "reduce": "repro.collectives.reduce",
    "scatter": "repro.collectives.scatter",
}


@dataclass(frozen=True)
class AlgorithmInfo:
    """Capability record of one registered algorithm."""

    family: str
    name: str
    cls: type = field(repr=False)
    #: the wire it rides: "torus", "tree", "gi" or "ptp" — validated at
    #: registration against :func:`repro.hardware.network.known_networks`
    network: str
    #: ppn values the constructor accepts
    modes: Tuple[int, ...]
    #: can carry real payload bytes for bit-exact verification
    data_carrying: bool
    #: needs kernel shared-address window mappings (Fig-8 lifecycle)
    shared_address: bool
    #: flow-name substrings this algorithm emits, mapped to trace row
    #: classes ("fault", "dma", "network", "tree", "copy", "other");
    #: consumed by :mod:`repro.sim.tracing` for chrome-trace row assignment
    trace_rows: Tuple[Tuple[str, str], ...] = ()

    def supports_ppn(self, ppn: int) -> bool:
        return ppn in self.modes


_REGISTRY: Dict[str, Dict[str, AlgorithmInfo]] = {}


def register(
    family: str,
    *,
    modes: Sequence[int] = ALL_MODES,
    data_carrying: bool = True,
    shared_address: bool = False,
):
    """Class decorator: add an invocation class to the registry.

    The class must define ``name`` (the registry key) and ``network``.
    ``modes`` lists the ppn values its constructor accepts;
    ``shared_address`` marks schemes that map peer windows (and thus
    benefit from the Fig-8 caching session); ``data_carrying=False``
    marks synchronisation-only collectives (barrier).
    """
    if family not in _FAMILY_MODULES:
        raise ValueError(
            f"unknown collective family {family!r}; "
            f"known: {sorted(_FAMILY_MODULES)}"
        )

    def decorate(cls: type) -> type:
        name = getattr(cls, "name", None)
        if not name or name == "?":
            raise ValueError(
                f"{cls.__name__} must define a registry `name` attribute"
            )
        network = getattr(cls, "network", None)
        if not network or network == "?":
            raise ValueError(
                f"{cls.__name__} must define a `network` attribute"
            )
        if network not in known_networks():
            raise ValueError(
                f"{cls.__name__}.network = {network!r} is not a known "
                f"network backend or wire; known: {known_networks()}"
            )
        info = AlgorithmInfo(
            family=family,
            name=name,
            cls=cls,
            network=network,
            modes=tuple(modes),
            data_carrying=data_carrying,
            shared_address=shared_address,
            trace_rows=tuple(
                (str(sub), str(row))
                for sub, row in getattr(cls, "trace_rows", ())
            ),
        )
        bucket = _REGISTRY.setdefault(family, {})
        previous = bucket.get(name)
        if previous is not None and previous.cls is not cls:
            raise ValueError(
                f"duplicate registration for {family}/{name}: "
                f"{previous.cls.__name__} vs {cls.__name__}"
            )
        bucket[name] = info
        cls.capabilities = info
        return cls

    return decorate


def _family_bucket(family: str) -> Dict[str, AlgorithmInfo]:
    if family not in _FAMILY_MODULES:
        raise KeyError(
            f"unknown collective family {family!r}; "
            f"known: {sorted(_FAMILY_MODULES)}"
        )
    # Importing the family module runs its @register decorators.
    importlib.import_module(_FAMILY_MODULES[family])
    return _REGISTRY.setdefault(family, {})


def families() -> List[str]:
    """All collective families the registry knows."""
    return sorted(_FAMILY_MODULES)


def algorithm_info(family: str, name: str) -> AlgorithmInfo:
    """The :class:`AlgorithmInfo` for one registered algorithm."""
    bucket = _family_bucket(family)
    if name not in bucket:
        raise KeyError(
            f"unknown {family} algorithm {name!r}; known: {sorted(bucket)}"
        )
    return bucket[name]


def get_algorithm(family: str, name: str) -> type:
    """Look up an algorithm class by family and registry name."""
    return algorithm_info(family, name).cls


def list_algorithms(family: str) -> List[str]:
    """Sorted registry names of one family."""
    return sorted(_family_bucket(family))


def fallback_chain(
    family: str, name: str, ppn: int,
    wires: Optional[Sequence[str]] = None,
) -> List[str]:
    """Degradation ladder starting at ``name``, filtered to ``ppn``.

    Walks :data:`repro.collectives.selection.FALLBACK_TABLE` from ``name``
    and keeps only protocols whose registered modes include ``ppn``
    (``name`` itself is kept unconditionally — the caller already chose
    it).  When ``wires`` is given (a machine backend's supported wire
    tags), rungs riding an unsupported wire are skipped too, so the
    ladder never degrades onto a network the machine does not have.
    The resilience layer tries the entries in order, moving down one
    rung each time a :class:`~repro.sim.engine.TransientFaultError`
    escapes a run.
    """
    chain = [name]
    seen = {name}
    current = name
    while True:
        nxt = next_fallback(family, current)
        if nxt is None or nxt in seen:
            break
        seen.add(nxt)
        current = nxt
        info = algorithm_info(family, nxt)
        if not info.supports_ppn(ppn):
            continue
        if wires is not None and info.network not in wires:
            continue
        chain.append(nxt)
    return chain


def iter_algorithms(family: Optional[str] = None) -> List[AlgorithmInfo]:
    """Capability records, for one family or (sorted) for all of them."""
    picked = [family] if family is not None else families()
    out: List[AlgorithmInfo] = []
    for fam in picked:
        bucket = _family_bucket(fam)
        out.extend(bucket[name] for name in sorted(bucket))
    return out

