"""Config-driven parameter sweeps with JSON result persistence.

A sweep is described declaratively (dict or JSON file): a collective kind,
the algorithms to compare, the x-axis (sizes/counts/blocks), and the
machine.  ``run_sweep`` executes the grid and returns a
:class:`SweepResult` that renders as a table or chart and serializes to
JSON — the building block for custom studies beyond the paper's figures.

Example config::

    {
      "name": "my-bcast-study",
      "kind": "bcast",
      "algorithms": ["torus-shaddr", "torus-direct-put", "auto"],
      "sizes": ["64K", "512K", "2M"],
      "machine": {"dims": [4, 4, 4], "mode": "quad"},
      "iters": 1
    }

The machine block also accepts ``"network"`` (a backend name from
:func:`repro.hardware.network.known_backends`, default ``"torus"``) and
``"wrap"``.

Any registered algorithm name of the kind works, plus ``"auto"``: the
section-V selection table picks the protocol per x value, so the policy
itself can be swept as a series.

Every (algorithm, x) point is an independent deterministic simulation, so
``run_sweep(config, jobs=N)`` fans the grid across ``N`` worker processes
through :func:`~repro.bench.parallel.execute_points` and merges the
results in point order — byte-identical output to ``jobs=1``.

CLI: ``python -m repro sweep config.json [--out results.json] [--jobs N]``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.bench.parallel import execute_points
from repro.bench.report import Series, format_table
from repro.hardware.machine import Mode
from repro.util.units import parse_size

#: kind -> does x mean element count rather than bytes?  Every kind is
#: measured through the generic ``run_collective`` driver.
_KINDS = {
    "bcast": False,
    "allreduce": True,
    "reduce": True,
    "gather": False,
    "scatter": False,
    "allgather": False,
    "alltoall": False,
}


@dataclass
class SweepResult:
    """Outcome of one sweep: per-algorithm series over the x-axis."""

    name: str
    kind: str
    x_values: List[int]
    #: algorithm -> bandwidth MB/s per x value
    bandwidth: Dict[str, List[float]] = field(default_factory=dict)
    #: algorithm -> elapsed µs per x value
    elapsed_us: Dict[str, List[float]] = field(default_factory=dict)

    def table(self, metric: str = "bandwidth") -> str:
        data = self.bandwidth if metric == "bandwidth" else self.elapsed_us
        series = [Series(name, values) for name, values in data.items()]
        x_format = "count" if _KINDS[self.kind] else "bytes"
        return format_table(
            "x", self.x_values, series,
            value_format="{:.1f}", x_format=x_format,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())


def _validate_config(config: dict) -> None:
    for key in ("kind", "algorithms", "sizes"):
        if key not in config:
            raise KeyError(f"sweep config missing {key!r}")
    if config["kind"] not in _KINDS:
        raise KeyError(
            f"unknown sweep kind {config['kind']!r}; "
            f"known: {sorted(_KINDS)}"
        )
    if not config["algorithms"] or not config["sizes"]:
        raise ValueError("algorithms and sizes must be non-empty")


def run_sweep(config: dict, jobs: Optional[int] = None,
              farm: Optional[str] = None) -> SweepResult:
    """Execute the sweep described by ``config``.

    ``jobs`` fans the (algorithm, x) grid across that many worker
    processes (``None``: the ``REPRO_JOBS`` environment variable, else
    serial).  Results are merged in grid order, so the returned
    :class:`SweepResult` is identical whatever the job count.  ``farm``
    routes the grid to a sweep-farm work-server instead
    (:mod:`repro.bench.farm`) with the same deterministic merge.
    """
    _validate_config(config)
    kind = config["kind"]
    machine_cfg = config.get("machine", {})
    dims = tuple(machine_cfg.get("dims", (2, 2, 2)))
    mode = Mode[machine_cfg.get("mode", "quad").upper()]
    wrap = bool(machine_cfg.get("wrap", True))
    network = machine_cfg.get("network", "torus")
    iters = int(config.get("iters", 1))
    x_values = [parse_size(s) for s in config["sizes"]]
    result = SweepResult(
        name=config.get("name", f"{kind}-sweep"),
        kind=kind,
        x_values=x_values,
    )
    # ``"auto"`` re-selects per x through the section-V table (inside the
    # worker), so a sweep can plot the selection policy itself as a series.
    specs = [
        {
            "family": kind, "algorithm": algorithm, "x": x,
            "dims": dims, "mode": mode.name, "wrap": wrap, "iters": iters,
            **({"network": network} if network != "torus" else {}),
        }
        for algorithm in config["algorithms"]
        for x in x_values
    ]
    measured = execute_points(specs, jobs, farm=farm)
    for start, algorithm in zip(
        range(0, len(specs), len(x_values)), config["algorithms"]
    ):
        points = measured[start:start + len(x_values)]
        result.bandwidth[algorithm] = [p.bandwidth_mbs for p in points]
        result.elapsed_us[algorithm] = [p.elapsed_us for p in points]
    return result


def run_sweep_file(path: str, jobs: Optional[int] = None,
                   farm: Optional[str] = None) -> SweepResult:
    """Execute a sweep from a JSON config file."""
    with open(path) as handle:
        return run_sweep(json.load(handle), jobs=jobs, farm=farm)
