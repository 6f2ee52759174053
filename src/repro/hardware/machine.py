"""The assembled machine: nodes, networks, modes, and rank mapping.

A :class:`Machine` is the root object the MPI layer and the collective
algorithms work against.  It owns the DES engine and flow network, builds
every node and both interconnects, and maps MPI ranks onto (node, core)
pairs according to the operating mode (section III):

* ``SMP``  — one process per node (plus an optional helper communication
  thread on a second core);
* ``DUAL`` — two processes per node;
* ``QUAD`` — four processes per node (the mode this paper optimizes).

Rank mapping is node-major ("TXYZ"-style): ranks ``[n*ppn, (n+1)*ppn)``
live on node ``n`` with local ranks ``0..ppn-1``.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Tuple

from repro.hardware.dma import DmaEngine
from repro.hardware.fault_schedule import ActiveFaults, RetryPolicy
from repro.hardware.memory import MemoryModel, MemoryRegime
from repro.hardware.network import (
    NetworkBackend,
    UnsupportedTopologyError,
    create_network,
)
from repro.hardware.node import Node
from repro.hardware.params import BGPParams
from repro.hardware.torus import TorusNetwork
from repro.hardware.tree import CollectiveNetwork
from repro.sim.engine import Engine, Process
from repro.sim.flownet import FlowNetwork
from repro.sim.sync import SimBarrier, SimCounter


class Mode(enum.Enum):
    """BG/P operating mode: MPI processes per node."""

    SMP = 1
    DUAL = 2
    QUAD = 4

    @property
    def processes_per_node(self) -> int:
        return self.value


class Machine:
    """A simulated BG/P partition."""

    def __init__(
        self,
        torus_dims: Tuple[int, int, int] = (4, 4, 4),
        mode: Mode = Mode.QUAD,
        params: Optional[BGPParams] = None,
        wrap: bool = True,
        network: str = "torus",
        network_params: Optional[dict] = None,
        tree_depth_nodes: Optional[int] = None,
    ):
        self.params = params if params is not None else BGPParams()
        self.mode = mode
        self.engine = Engine()
        self.flownet = FlowNetwork(self.engine)
        self.memory_model = MemoryModel(self.params)
        #: the interconnect backend (``torus`` by default); ``torus_dims``
        #: keeps its historical name — non-torus backends read it as a
        #: geometry tuple whose product is the node count
        self.network: NetworkBackend = create_network(
            network, self, tuple(torus_dims), wrap=wrap,
            params=network_params,
        )
        self.nnodes = self.network.nnodes
        self.nodes: List[Node] = [
            Node(self, i, self.network.coords(i)) for i in range(self.nnodes)
        ]
        self.dma: List[DmaEngine] = [DmaEngine(node) for node in self.nodes]
        # ``tree_depth_nodes``: the node count the collective network's
        # depth (its only size-dependent latency) is computed from; None
        # means this machine's own.  A folded run passes the full one's.
        self.tree = CollectiveNetwork(self, tree_depth_nodes)
        self.ppn = mode.processes_per_node
        self.nprocs = self.nnodes * self.ppn
        #: registry of active transient-fault windows (queried at protocol
        #: boundaries; empty on a healthy machine)
        self.faults = ActiveFaults(self)
        #: retry/backoff budget for faultable protocol operations
        self.retry_policy = RetryPolicy()
        #: hooks re-run after :meth:`set_working_set` reinstalls capacities,
        #: so injectors and fault windows survive regime changes
        self._reapply_hooks: List[Callable[[], None]] = []
        #: simulated time :meth:`rebase_time` has taken off the clock; the
        #: machine has run for ``rebased_us + engine.now`` in all
        self.rebased_us = 0.0
        if self.ppn > self.params.cores_per_node:
            raise ValueError(
                f"mode {mode} needs {self.ppn} cores but the node has "
                f"{self.params.cores_per_node}"
            )

    @property
    def torus(self) -> TorusNetwork:
        """The torus backend, when this machine has one.

        Torus-only code paths (the rectangle schedules, deposit-bit line
        broadcasts) reach the interconnect through this property; on a
        non-torus backend it raises :class:`UnsupportedTopologyError`
        instead of silently handing out an object without
        ``line_broadcast``.
        """
        if isinstance(self.network, TorusNetwork):
            return self.network
        raise UnsupportedTopologyError(
            f"machine network is {self.network.name!r}, not a torus; "
            "torus-only primitives are unavailable"
        )

    # -- rank mapping ----------------------------------------------------
    def rank_to_node(self, rank: int) -> int:
        """MPI rank -> node index (node-major mapping)."""
        self.check_rank(rank)
        return rank // self.ppn

    def rank_to_local(self, rank: int) -> int:
        """MPI rank -> local rank on its node (0..ppn-1)."""
        self.check_rank(rank)
        return rank % self.ppn

    def node_ranks(self, node_index: int) -> List[int]:
        """All MPI ranks living on node ``node_index``."""
        if not 0 <= node_index < self.nnodes:
            raise ValueError(f"node index out of range: {node_index}")
        base = node_index * self.ppn
        return list(range(base, base + self.ppn))

    def check_rank(self, rank: int) -> None:
        """Validate an MPI rank against this machine (raises ValueError)."""
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank out of range: {rank} (nprocs={self.nprocs})")

    # -- configuration ----------------------------------------------------
    def set_working_set(self, nbytes: int) -> MemoryRegime:
        """Install the cache regime for an upcoming collective on all nodes.

        Capacity injectors registered via :meth:`add_reapply_hook` are
        re-run afterwards, so their perturbations survive the regime
        reinstall instead of being silently reset.
        """
        regime = self.memory_model.regime(nbytes)
        for node in self.nodes:
            node.set_regime(regime)
        for hook in self._reapply_hooks:
            hook()
        tel = self.engine.telemetry
        if tel is not None:
            tel.working_set(self.engine.now, nbytes)
        return regime

    def add_reapply_hook(self, hook: Callable[[], None]) -> None:
        """Register a hook re-run after every :meth:`set_working_set`."""
        self._reapply_hooks.append(hook)

    def remove_reapply_hook(self, hook: Callable[[], None]) -> None:
        """Unregister a reapply hook (no-op if absent)."""
        try:
            self._reapply_hooks.remove(hook)
        except ValueError:
            pass

    # -- telemetry ---------------------------------------------------------
    def attach_telemetry(self):
        """Attach a fresh :class:`~repro.telemetry.recorder.TelemetryRecorder`
        and return it.

        Recording is purely observational — timings are bit-identical with
        or without it — so it is safe to attach before any measured run.
        """
        from repro.telemetry.recorder import TelemetryRecorder

        recorder = TelemetryRecorder()
        self.engine.telemetry = recorder
        return recorder

    def detach_telemetry(self):
        """Detach and return the current recorder (None if absent)."""
        recorder, self.engine.telemetry = self.engine.telemetry, None
        return recorder

    # -- conveniences ------------------------------------------------------
    def spawn(self, generator, name: str = "?") -> Process:
        """Spawn a simulation process on this machine's engine."""
        return self.engine.spawn(generator, name=name)

    def make_barrier(self) -> SimBarrier:
        """A barrier across all MPI ranks, with the global-interrupt-network
        latency."""
        return SimBarrier(
            self.engine, self.nprocs, latency=self.params.barrier_latency
        )

    def make_counter(
        self, name: str = "counter", node: Optional[int] = None,
        value: float = 0.0,
    ) -> SimCounter:
        """A fault-aware software counter published by cores on ``node``.

        The paper's software message counters are mirrored by a core, so an
        injected :class:`~repro.hardware.fault_schedule.CounterStall` on the
        publishing node defers watcher wake-ups until the stall window
        clears.  Hardware DMA counters are *not* built through this factory
        and therefore keep publishing through a stall — which is what lets
        the DMA protocols act as the last rung of the fallback ladder.
        """
        return SimCounter(
            self.engine, value=value, name=name,
            stall_fn=lambda: self.faults.stall_remaining(node),
        )

    def run(self) -> float:
        """Drain the event queue; returns the final simulation time."""
        return self.engine.run()

    def rebase_time(self) -> None:
        """Reset the simulation clock origin to the current instant.

        Folds every resource's busy integral up to now, shifts any
        in-flight flow's progress bookkeeping, and rebases the engine
        (see :meth:`Engine.rebase`).  The harness calls this at each
        iteration barrier so every iteration runs the same float
        arithmetic regardless of how much virtual time has passed.
        """
        now = self.engine.now
        if now == 0.0:
            return
        shifted = set()
        for resource in self.flownet.resources:
            resource.integrate(now)
            resource._busy_last = 0.0
            for flow in resource.flows:
                if id(flow) not in shifted:
                    shifted.add(id(flow))
                    flow.advance(now)
                    flow.last_update = 0.0
        # The flows moved outside a re-solve: no component counts as
        # resolved at an instant any more.
        self.flownet.drop_certificates()
        self.engine.rebase(now)
        self.rebased_us += now
        # Fault windows are stored in absolute engine time; keep them in
        # step with the rebased clock.
        self.faults.rebase(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        net = "" if self.network.name == "torus" else f" net={self.network.name}"
        return (
            f"<Machine {self.network.dims} mode={self.mode.name} "
            f"nprocs={self.nprocs}{net}>"
        )
