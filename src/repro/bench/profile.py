"""Resource-utilization profiling of simulated collectives.

Every :class:`~repro.sim.flownet.FlowResource` integrates its load over
time; this module aggregates those integrals per resource kind into the
picture the paper argues from — e.g. for the quad-mode direct-put baseline
the **DMA engines run at ~100 % while the wires idle**, and the
shared-address scheme flips that.

Typical use::

    machine = Machine(torus_dims=(4, 4, 4), mode=Mode.QUAD)
    result = run_collective(machine, "bcast", "torus-direct-put",
                            2 * 1024 * 1024)
    report = utilization_report(machine)
    print(format_report(report))
    report.group("dma").mean      # ~0.86: the DMA-bound baseline

Utilization is averaged over the full simulated time span of the machine,
every iteration included, so profile a *fresh* machine per measurement
(the harness idiom throughout this package).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.hardware.machine import Machine


@dataclass
class GroupStats:
    """Utilization summary for one class of resources."""

    name: str
    count: int
    mean: float
    peak: float
    #: total raw bytes served by the group over the window
    bytes_served: float


@dataclass
class UtilizationReport:
    """Per-class utilization over a simulated window."""

    window_us: float
    groups: Dict[str, GroupStats] = field(default_factory=dict)

    def group(self, name: str) -> GroupStats:
        if name not in self.groups:
            raise KeyError(
                f"no resource group {name!r}; have {sorted(self.groups)}"
            )
        return self.groups[name]


def utilization_report(machine: Machine) -> UtilizationReport:
    """Aggregate utilization of all machine resources over the machine's
    whole simulated span, one group per resource kind (``links``,
    ``mem``, ``dma``, ...)."""
    now = machine.engine.now
    # Busy integrals survive Machine.rebase_time, so the window must too:
    # on the rebased clock the machine started at -rebased_us.
    start = -machine.rebased_us
    report = UtilizationReport(window_us=now - start)
    if now <= start:
        return report
    buckets: Dict[str, List] = {}
    for resource in machine.flownet.resources:
        buckets.setdefault(resource.kind, []).append(resource)
    for name, resources in buckets.items():
        utils = [r.utilization(now, start) for r in resources]
        served = sum(r.busy_integral(now) for r in resources)
        report.groups[name] = GroupStats(
            name=name,
            count=len(resources),
            mean=sum(utils) / len(utils),
            peak=max(utils),
            bytes_served=served,
        )
    return report


def format_report(report: UtilizationReport) -> str:
    """Render a report as a fixed-width table."""
    lines = [
        f"resource utilization over {report.window_us:.1f} us",
        f"{'class':>10} {'n':>5} {'mean':>7} {'peak':>7} {'MB served':>11}",
    ]
    for name in sorted(report.groups):
        g = report.groups[name]
        lines.append(
            f"{g.name:>10} {g.count:>5} {g.mean:>6.1%} {g.peak:>6.1%} "
            f"{g.bytes_served / 1e6:>11.2f}"
        )
    return "\n".join(lines)
