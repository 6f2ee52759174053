"""Solver-mode configuration, resolved at call time.

The flow network has two solver altitudes (see ``docs/performance.md``):
the from-scratch **reference** traversal and the **incremental**
component-cache fast path.  They give bit-identical results.  Two
environment variables select between them:

* ``REPRO_SIM_SLOWPATH=1``  — reference traversal instead of incremental;
* ``REPRO_SIM_DEBUG=1``     — cross-check accumulators and component
  caches against from-scratch recomputation on every resolve.

Historically ``FlowNetwork`` snapshotted both at *construction*
(``sim/flownet.py``), so flipping an environment variable between runs
silently did nothing until every machine was rebuilt.  This module is the
one place the variables are read, and it is read at **call time**:
:meth:`repro.sim.flownet.FlowNetwork.configure` re-resolves its modes
through :func:`resolve_solver_config` on demand, remembering which fields
were pinned by explicit arguments (those stay pinned across refreshes)
and which came from the environment (those track it).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

#: environment variables, in one place
ENV_SLOWPATH = "REPRO_SIM_SLOWPATH"
ENV_DEBUG = "REPRO_SIM_DEBUG"


def env_flag(name: str, default: bool) -> bool:
    """Read a boolean environment flag: ``"1"`` is true, ``"0"`` is false.

    Any other value (including unset) yields ``default``, so flags keep
    their documented default instead of tripping over stray values.
    """
    value = os.environ.get(name, "")
    if value == "1":
        return True
    if value == "0":
        return False
    return default


@dataclass(frozen=True)
class SolverConfig:
    """Resolved solver modes plus which of them were explicitly pinned.

    ``incremental``/``debug`` are the effective modes; the ``*_pinned``
    flags record whether the value came from an explicit argument (sticky
    across :func:`resolve_solver_config` refreshes) or from the
    environment (re-read on every refresh).
    """

    incremental: bool
    debug: bool
    incremental_pinned: bool = False
    debug_pinned: bool = False

    @property
    def mode(self) -> str:
        """The solver mode label recorded in manifests and BENCH entries."""
        return "incremental" if self.incremental else "slowpath"


def resolve_solver_config(
    incremental: Optional[bool] = None,
    debug: Optional[bool] = None,
    base: Optional[SolverConfig] = None,
) -> SolverConfig:
    """Resolve solver modes from explicit arguments and the environment.

    Explicit (non-``None``) arguments win and become *pinned*.  ``None``
    falls back to a pinned value carried over from ``base`` (a previous
    resolution), else to the environment variable, else to the default
    (incremental on, debug off).
    """

    def pick(arg, pinned_value, env_name, default):
        if arg is not None:
            return bool(arg), True
        if pinned_value is not None:
            return pinned_value, True
        return env_flag(env_name, default), False

    base_inc = base.incremental if base is not None and base.incremental_pinned else None
    base_dbg = base.debug if base is not None and base.debug_pinned else None
    # REPRO_SIM_SLOWPATH=1 means incremental OFF, hence the inversion.
    slow, inc_pinned = pick(
        None if incremental is None else (not incremental),
        None if base_inc is None else (not base_inc),
        ENV_SLOWPATH, False,
    )
    dbg, dbg_pinned = pick(debug, base_dbg, ENV_DEBUG, False)
    return SolverConfig(
        incremental=not slow,
        debug=dbg,
        incremental_pinned=inc_pinned,
        debug_pinned=dbg_pinned,
    )
