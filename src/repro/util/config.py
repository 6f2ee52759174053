"""Every ``REPRO_*`` environment variable, declared once and read one way.

:data:`VARIABLES` declares each variable's parser, default, accepted
values and meaning; :func:`setting` is the only reader.  An explicit
argument wins, then the environment (read at call time), then the
default.  An unset or blank variable means the default, and a value its
parser rejects raises ``ValueError`` naming the variable and the values
it accepts.  ``docs/usage.md`` ("Environment variables") lists the same
table.

Stdlib only, like the rest of :mod:`repro.util`.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, NamedTuple


class Variable(NamedTuple):
    """One variable: ``parse`` raises ``ValueError`` on a stray value."""

    parse: Callable[[str], object]
    default: object
    accepts: str
    doc: str


def _flag(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(raw)
    return raw == "1"


def _seconds(raw: str) -> float:
    value = float(raw)
    if not value > 0:
        raise ValueError(raw)
    return value


def _choice(*values: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        value = raw.strip().lower()
        if value not in values:
            raise ValueError(raw)
        return value

    return parse


VARIABLES: Dict[str, Variable] = {
    "REPRO_SIM_SLOWPATH": Variable(
        _flag, False, "0 or 1",
        "1: a flow network built from now on solves on the reference "
        "from-scratch path instead of the incremental one"),
    "REPRO_SIM_DEBUG": Variable(
        _flag, False, "0 or 1",
        "1: a flow network built from now on cross-checks its "
        "accumulators, caches and delta re-fills on every solve"),
    "REPRO_JOBS": Variable(
        int, 1, "an integer",
        "worker processes of a sweep when no --jobs is given; 0 or less: "
        "one per CPU"),
    "REPRO_CHUNK_TIMEOUT_S": Variable(
        _seconds, None, "a positive number of seconds",
        "a sweep fails its outstanding points when no chunk completes "
        "for this long (a farm driver: no new point); unset: no bound"),
    "REPRO_FARM": Variable(
        str.strip, None, "host:port",
        "sweep-farm server that executes sweeps when no --farm is given; "
        "unset: local execution"),
    "REPRO_FARM_AUTHKEY": Variable(
        str, None, "any text",
        "shared secret of every farm connection; unset: the public key "
        "repro-farm, which a server only accepts on a loopback bind"),
    "REPRO_FLIGHT_DIR": Variable(
        str.strip, None, "a directory",
        "where flight-recorder dumps are written; unset: no dumps"),
    "REPRO_LOG_LEVEL": Variable(
        _choice("debug", "info", "warning", "error"), "info",
        "debug, info, warning or error",
        "least severe runtime log event printed; a logger's own level "
        "(the farm's --quiet) overrides it"),
    "REPRO_RUNTIME_LOG": Variable(
        _choice("console", "json"), "console", "console or json",
        "format of runtime log lines on stderr: the historical console "
        "shapes, or one JSON object per line"),
}


def setting(name: str, explicit=None):
    """The value of variable ``name``: ``explicit`` unless ``None``, else
    the environment's value, else the declared default."""
    variable = VARIABLES[name]
    if explicit is not None:
        return explicit
    raw = os.environ.get(name, "")
    if not raw.strip():
        return variable.default
    try:
        return variable.parse(raw)
    except ValueError:
        raise ValueError(
            f"{name}={raw!r} is not valid: expected {variable.accepts}"
        ) from None
