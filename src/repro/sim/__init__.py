"""A small discrete-event simulation (DES) kernel.

The kernel is deliberately self-contained (no SimPy dependency) and exposes
exactly the primitives the BG/P models need:

* :class:`~repro.sim.engine.Engine` — the event loop with a virtual clock in
  microseconds.
* :class:`~repro.sim.engine.Process` — a generator-based cooperative process.
* Waitables — :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.Event`, and joining another ``Process``.
* Bandwidth — :class:`~repro.sim.flownet.FlowNetwork`, the max-min fair
  flow network: every bandwidth-sharing resource (torus links, DMA
  engines, memory ports, tree ports) is one of its
  :class:`~repro.sim.flownet.FlowResource` objects.
* Items — :class:`~repro.sim.resources.Store` (bounded FIFO of items).
* Synchronisation — :class:`~repro.sim.sync.SimBarrier`,
  :class:`~repro.sim.sync.SimCounter` (waitable monotonic counter; the
  software *message counter* of the paper is built on it).

Design notes
------------
Processes are plain generators that ``yield`` waitables.  A waitable calls
the process back through ``Engine`` when it fires; the value of the waitable
(e.g. an event payload) is sent into the generator.  All state updates happen
at event boundaries, so the simulation is deterministic: ties in time are
broken by a monotonically increasing sequence number.
"""

from repro.sim.engine import Engine, Process, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout, Waitable
from repro.sim.flownet import Flow, FlowNetwork, FlowResource
from repro.sim.resources import Store
from repro.sim.sync import SimBarrier, SimCounter

__all__ = [
    "Engine",
    "Process",
    "SimulationError",
    "Event",
    "Timeout",
    "Waitable",
    "AnyOf",
    "AllOf",
    "Store",
    "SimBarrier",
    "SimCounter",
    "Flow",
    "FlowNetwork",
    "FlowResource",
]
