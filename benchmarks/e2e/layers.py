"""Charge a ``cProfile`` of one pass to the simulator's layers.

Self time is charged by the module a frame belongs to.  Builtin, numpy
and standard-library frames belong to no layer: their self time goes to
the layers that called them, split the way ``pstats`` splits a
function's self time between its callers.  The benchmark's own frames
count as ``other``.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

Func = Tuple[str, int, str]

LAYERS = ("sim.engine", "sim.flownet", "protocol", "hardware", "harness",
          "telemetry", "serve", "other")

#: module (path inside the ``repro`` package) -> layer; a trailing ``/``
#: matches a whole subpackage.  Unlisted modules are ``other``.
_MODULE_LAYERS = {
    "sim/engine.py": "sim.engine",
    "sim/events.py": "sim.engine",
    "sim/sync.py": "sim.engine",
    "sim/resources.py": "sim.engine",
    "sim/flownet.py": "sim.flownet",
    "sim/config.py": "sim.flownet",
    "collectives/": "protocol",
    "structures/": "protocol",
    "kernel/": "protocol",
    "msg/": "protocol",
    "mpi/": "protocol",
    "hardware/": "hardware",
    "bench/harness.py": "harness",
    "bench/parallel.py": "harness",
    "bench/warmpool.py": "harness",
    "telemetry/": "telemetry",
    "serve/": "serve",
}

#: work counts: metric -> (module inside ``repro``, function name); each
#: name is defined once in its module
COUNTED = {
    "sim.engine.events": ("sim/engine.py", "call_at"),
    "sim.engine.resumes": ("sim/engine.py", "resume"),
    "sim.flownet.transfers": ("sim/flownet.py", "transfer"),
    "sim.flownet.resolves": ("sim/flownet.py", "_resolve"),
    "sim.flownet.recarves": ("sim/flownet.py", "_recarve"),
    "hardware.machines_built": ("hardware/machine.py", "__init__"),
    "harness.points": ("bench/harness.py", "run_collective"),
    "serve.computes": ("serve/service.py", "compute"),
}


def module_layer(module: str) -> str:
    """The layer of a module given by its path inside ``repro``."""
    for prefix, layer in _MODULE_LAYERS.items():
        if module == prefix or (prefix.endswith("/") and module.startswith(prefix)):
            return layer
    return "other"


def classifier(package_dir: str, own_dir: str) -> Callable[[str], Optional[str]]:
    """Map a frame's filename to its layer, or None for a foreign frame."""
    package = os.path.realpath(package_dir) + os.sep
    own = os.path.realpath(own_dir) + os.sep

    def classify(filename: str) -> Optional[str]:
        path = os.path.realpath(filename) if os.sep in filename else filename
        if path.startswith(package):
            return module_layer(path[len(package):].replace(os.sep, "/"))
        if path.startswith(own):
            return "other"
        return None

    return classify


def attribute(stats: Dict[Func, tuple],
              classify: Callable[[str], Optional[str]]) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    ``stats`` maps ``(filename, line, name)`` to ``(cc, nc, tt, ct,
    callers)``, where ``callers`` maps each calling function to its own
    ``(cc, nc, tt, ct)`` share.  A foreign frame's weight over the layers
    is its callers' weights, mixed by the self time each caller accounts
    for (by call count when the profiler saw no time at all).
    """
    weights: Dict[Func, Dict[str, float]] = {}

    def weights_of(func: Func, visiting: set) -> Dict[str, float]:
        if func in weights:
            return weights[func]
        layer = classify(func[0])
        if layer is not None:
            weights[func] = {layer: 1.0}
            return weights[func]
        if func in visiting:
            # Recursion among foreign frames: the cycle's own callers
            # carry the weight, so this back edge adds nothing new.
            return {}
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        column = 2 if sum(entry[2] for entry in callers.values()) > 0 else 1
        total = sum(entry[column] for entry in callers.values()) or 1
        mixed: Dict[str, float] = {}
        visiting.add(func)
        for caller, entry in callers.items():
            for name, share in weights_of(caller, visiting).items():
                mixed[name] = mixed.get(name, 0.0) + share * entry[column] / total
        visiting.discard(func)
        norm = sum(mixed.values())
        weights[func] = (
            {name: share / norm for name, share in mixed.items()}
            if norm > 0 else {"other": 1.0}
        )
        return weights[func]

    self_s = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, share in weights_of(func, set()).items():
            self_s[layer] += tt * share
    return self_s


def counts(stats: Dict[Func, tuple], package_dir: str) -> Dict[str, int]:
    """Calls to each function in :data:`COUNTED` (recursive calls too)."""
    package = os.path.realpath(package_dir) + os.sep
    wanted = {(os.path.join(package, module), name): metric
              for metric, (module, name) in COUNTED.items()}
    out = dict.fromkeys(COUNTED, 0)
    for (filename, _line, name), (_cc, nc, *_rest) in stats.items():
        metric = wanted.get((os.path.realpath(filename), name))
        if metric is not None:
            out[metric] += nc
    return out
