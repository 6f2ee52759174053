"""Fault and perturbation injection.

Real machines are not uniform: links train down, a node's DRAM throttles,
OS noise steals core cycles.  This module perturbs a built machine so the
test suite can check that the collectives stay *correct* under degradation
and that the performance model reacts the way hardware would — e.g. a
single slow drain core backpressures the whole collective network, and a
degraded torus link throttles every color stream crossing it.

All injectors operate on resource capacities (and, for jitter, on
per-process delays), so they compose with every algorithm unmodified.
Injectors that touch capacities reinstalled by
:meth:`Machine.set_working_set` register a reapply hook on the machine,
so the perturbation persists across regime changes.  For *time-windowed*
faults driven by the simulation clock, see
:mod:`repro.hardware.fault_schedule`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.hardware.fault_schedule import (  # noqa: F401 - re-exported
    ActiveFaults,
    CounterStall,
    Fault,
    FaultSchedule,
    LinkFlap,
    NodeSlowdown,
    RetryPolicy,
    TreePortFlap,
    WindowFault,
    _check_factor,
)
from repro.hardware.machine import Machine


def degrade_node_memory(machine: Machine, node: int, factor: float) -> None:
    """Scale one node's memory-port capacity by ``factor`` (0 < f <= 1).

    Models a node whose DRAM is throttled (thermal limits, ECC storms).
    The scaling persists across :meth:`Machine.set_working_set` — a reapply
    hook re-multiplies the freshly installed regime capacity by ``factor``.
    """
    _check_factor(factor)
    mem = machine.nodes[node].mem
    mem.set_capacity(mem.capacity * factor)
    machine.add_reapply_hook(
        lambda: mem.set_capacity(mem.capacity * factor)
    )


def degrade_node_dma(machine: Machine, node: int, factor: float) -> None:
    """Scale one node's DMA budget by ``factor``."""
    _check_factor(factor)
    machine.nodes[node].dma.set_capacity(
        machine.nodes[node].dma.capacity * factor
    )


def degrade_tree_port(machine: Machine, node: int, factor: float,
                      direction: str = "down") -> None:
    """Scale one node's tree injection/reception port by ``factor``.

    A single degraded drain port backpressures the whole tree through the
    in-flight window — the machine-wide straggler effect.
    """
    _check_factor(factor)
    port = (
        machine.nodes[node].tree_down
        if direction == "down"
        else machine.nodes[node].tree_up
    )
    port.set_capacity(port.capacity * factor)


def degrade_torus_channels(machine: Machine, node: int, factor: float) -> None:
    """Scale every existing torus channel touching lines through ``node``.

    Torus channels are created lazily, so call this after the collective's
    invocation has been constructed (routes built), or re-apply before each
    run.  Channels whose line passes through the node are scaled — the
    moral equivalent of one node's links training down to a lower rate.
    Uses the public :meth:`NetworkBackend.channels_touching` enumeration
    (any backend, not just the torus).
    """
    _check_factor(factor)
    for channel in machine.network.channels_touching(node):
        channel.set_capacity(channel.capacity * factor)


class JitterInjector:
    """OS-noise model: random extra delays charged to ranks' cores.

    Use from a wrapped invocation ``proc`` or via :func:`jittered_procs`:
    every call to :meth:`delay` draws a non-negative delay (exponential,
    mean ``mean_us``) from a seeded RNG, so runs stay reproducible.
    """

    def __init__(self, machine: Machine, mean_us: float, seed: int = 99):
        if mean_us < 0:
            raise ValueError(f"mean_us must be >= 0, got {mean_us}")
        self.machine = machine
        self.mean_us = mean_us
        self._rng = np.random.default_rng(seed)

    def delay(self):
        """Sub-generator: one noise event on the calling core."""
        if self.mean_us > 0:
            yield self.machine.engine.timeout(
                float(self._rng.exponential(self.mean_us))
            )
        else:
            yield self.machine.engine.timeout(0.0)


def jittered_proc(invocation, rank: int, jitter: JitterInjector):
    """Wrap an invocation's per-rank coroutine with entry/exit OS noise."""
    yield from jitter.delay()
    yield from invocation.proc(rank)
    yield from jitter.delay()
