"""Transient-fault timelines driven by the simulation engine.

The static injectors of :mod:`repro.hardware.faults` perturb a machine once,
before a run.  Real machines misbehave *mid-collective*: a link trains down
for a few hundred microseconds and recovers, a node's DRAM throttles through
a thermal event, the kernel transiently runs out of the TLB slots backing
shared-address windows, a core servicing a software message counter stalls.
This module models those as a :class:`FaultSchedule` — a timeline of
:class:`Fault` windows installed into a machine's engine.  When a
telemetry recorder is attached, each window's start and end are recorded
as a ``fault.*`` interval, which the Chrome trace renders on its own
fault-timeline row.

Two fault families exist:

*capacity faults* (:class:`LinkFlap`, :class:`NodeSlowdown`,
:class:`TreePortFlap`)
    applied and reverted by engine callbacks at the window edges; they scale
    flow-network capacities, so every algorithm slows but stays correct.

*protocol faults* (:class:`WindowFault`, :class:`CounterStall`)
    recorded in the machine's :class:`ActiveFaults` registry and *queried*
    at the protocol boundary: :meth:`repro.kernel.windows.ProcessWindows.\
map_buffer` consults :meth:`ActiveFaults.window_slot_cap` (bounded TLB-slot
    exhaustion, retried with exponential backoff under the machine's
    :class:`RetryPolicy`), and software counters built with
    :meth:`~repro.hardware.machine.Machine.make_counter` consult
    :meth:`ActiveFaults.stall_remaining`.  When the retry budget is
    exhausted — or a collective misses its deadline because its counters
    never advance — a :class:`~repro.sim.engine.TransientFaultError`
    escapes the run and the resilience layer
    (:mod:`repro.bench.chaos`) degrades to the next protocol in the
    fallback ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.machine import Machine

#: "never clears within this run": a stall deferral far past any plausible
#: deadline, kept finite so heap/rebase arithmetic stays well-defined
_NEVER_US = 1e12


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry budget for faultable operations.

    An operation that hits a transient fault is retried up to
    ``max_attempts`` times total; retry *k* (1-based) first waits
    ``base_backoff_us * backoff_factor**(k-1)`` microseconds, capped at
    ``max_backoff_us`` — classic bounded exponential backoff.

    The policy is pure arithmetic over its fields, so it serves two
    clock domains: the simulator's protocol retries (microseconds of
    engine time, via :meth:`backoff_us`) and the sweep farm's wall-clock
    retries — chunk re-queues after lease expiry, worker/driver
    reconnects across a server restart — via :meth:`backoff_s`
    (:mod:`repro.bench.farm`).
    """

    max_attempts: int = 5
    base_backoff_us: float = 8.0
    backoff_factor: float = 2.0
    max_backoff_us: float = 512.0

    def backoff_us(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = self.base_backoff_us * self.backoff_factor ** (attempt - 1)
        return min(delay, self.max_backoff_us)

    def backoff_s(self, attempt: int) -> float:
        """:meth:`backoff_us` in seconds, for wall-clock (non-simulator) use."""
        return self.backoff_us(attempt) / 1e6


@dataclass(frozen=True)
class Fault:
    """One fault window: active on ``[start, start + duration)`` µs.

    ``duration=None`` means the fault never clears during the run (the
    harness treats it as lasting past any deadline).
    """

    start: float = 0.0
    duration: Optional[float] = None

    def label(self) -> str:  # pragma: no cover - overridden
        return "fault"

    @property
    def end(self) -> Optional[float]:
        if self.duration is None:
            return None
        return self.start + self.duration


@dataclass(frozen=True)
class LinkFlap(Fault):
    """Torus channels through ``node`` run at ``factor`` during the window.

    Also catches channels lazily created while the flap is active, via the
    torus channel-creation hook.
    """

    node: int = 0
    factor: float = 0.5

    def label(self) -> str:
        return f"fault.linkflap.n{self.node}"


@dataclass(frozen=True)
class TreePortFlap(Fault):
    """One node's collective-network port degrades during the window."""

    node: int = 0
    factor: float = 0.5
    direction: str = "down"

    def label(self) -> str:
        return f"fault.treeport.n{self.node}.{self.direction}"


@dataclass(frozen=True)
class NodeSlowdown(Fault):
    """One node's memory and DMA ports run at ``factor`` during the window.

    The memory scaling survives :meth:`Machine.set_working_set` through the
    machine's capacity reapply hooks.
    """

    node: int = 0
    factor: float = 0.5

    def label(self) -> str:
        return f"fault.slowdown.n{self.node}"


@dataclass(frozen=True)
class WindowFault(Fault):
    """Bounded TLB-slot exhaustion: window mappings fail during the window.

    While active, a mapping attempt on ``node`` (``None`` = every node)
    needing more than ``slots_available`` TLB slots fails and is retried
    under the machine's :class:`RetryPolicy`; with the default
    ``slots_available=0`` every mapping attempt fails until the window
    clears or the retry budget runs out.
    """

    node: Optional[int] = None
    slots_available: int = 0

    def label(self) -> str:
        where = "all" if self.node is None else f"n{self.node}"
        return f"fault.winmap.{where}"


@dataclass(frozen=True)
class CounterStall(Fault):
    """Software message-counter publishes on ``node`` stall in the window.

    Watchers of counters built via :meth:`Machine.make_counter` whose
    threshold is met during the window are woken only when the window
    clears — the paper's master core stops mirroring DMA counters into the
    software counter.  Already-published values stay readable.
    """

    node: Optional[int] = None

    def label(self) -> str:
        where = "all" if self.node is None else f"n{self.node}"
        return f"fault.ctrstall.{where}"


class ActiveFaults:
    """Per-machine registry of protocol-fault windows plus fault stats.

    Pure query layer: the fast path (no faults installed) is a single
    ``if not list`` check.  Window times are stored in engine time and are
    shifted by :meth:`rebase` whenever the machine rebases its clock, so
    queries stay consistent across the harness's per-iteration rebasing.
    """

    def __init__(self, machine: "Machine"):
        self.machine = machine
        # (start, end-or-None, node-or-None, slots_available)
        self._window_faults: List[
            Tuple[float, Optional[float], Optional[int], int]
        ] = []
        # (start, end-or-None, node-or-None)
        self._counter_stalls: List[
            Tuple[float, Optional[float], Optional[int]]
        ] = []
        #: windows retried after a faulted mapping attempt
        self.window_retries = 0
        #: mapping operations that exhausted their retry budget
        self.window_failures = 0
        #: counter publishes that hit an active stall
        self.counter_stalls_hit = 0

    # -- installation (used by FaultSchedule) ---------------------------
    def add_window_fault(
        self,
        start: float,
        end: Optional[float],
        node: Optional[int],
        slots_available: int,
    ) -> None:
        self._window_faults.append((start, end, node, slots_available))

    def add_counter_stall(
        self, start: float, end: Optional[float], node: Optional[int]
    ) -> None:
        self._counter_stalls.append((start, end, node))

    # -- queries ---------------------------------------------------------
    @staticmethod
    def _active(start: float, end: Optional[float], now: float) -> bool:
        return start <= now and (end is None or now < end)

    @staticmethod
    def _matches(fault_node: Optional[int], node: Optional[int]) -> bool:
        # A machine-wide fault hits every caller; a node-scoped fault hits
        # that node plus callers whose node is unknown.
        return fault_node is None or node is None or fault_node == node

    def window_slot_cap(self, node: Optional[int]) -> Optional[int]:
        """Active TLB-slot cap for mappings on ``node`` (None = healthy)."""
        if not self._window_faults:
            return None
        now = self.machine.engine.now
        cap: Optional[int] = None
        for start, end, fault_node, slots in self._window_faults:
            if self._active(start, end, now) and self._matches(fault_node, node):
                cap = slots if cap is None else min(cap, slots)
        return cap

    def stall_remaining(self, node: Optional[int]) -> float:
        """Microseconds until counter publishes on ``node`` unstall (0 = now)."""
        if not self._counter_stalls:
            return 0.0
        now = self.machine.engine.now
        until = now
        for start, end, fault_node in self._counter_stalls:
            if not self._active(start, end, now):
                continue
            if not self._matches(fault_node, node):
                continue
            if end is None:
                # Never clears within this run: stall past any deadline.
                until = now + _NEVER_US
                break
            until = max(until, end)
        remaining = until - now
        if remaining > 0.0:
            self.counter_stalls_hit += 1
            return remaining
        return 0.0

    def rebase(self, origin: float) -> None:
        """Shift stored windows when the machine rebases its clock."""
        if origin == 0.0:
            return
        self._window_faults = [
            (s - origin, None if e is None else e - origin, n, c)
            for (s, e, n, c) in self._window_faults
        ]
        self._counter_stalls = [
            (s - origin, None if e is None else e - origin, n)
            for (s, e, n) in self._counter_stalls
        ]


class FaultSchedule:
    """An ordered timeline of transient faults, installable into a machine.

    The schedule itself is immutable and machine-independent, so one
    schedule can be installed into successive fresh machines — the chaos
    harness reinstalls the *remainder* of the timeline into each fallback
    attempt by passing the campaign time already consumed as ``at``.
    """

    def __init__(self, faults: List[Fault]):
        self.faults: Tuple[Fault, ...] = tuple(
            sorted(faults, key=lambda f: f.start)
        )

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultSchedule {[f.label() for f in self.faults]}>"

    # -- installation -----------------------------------------------------
    def install(self, machine: "Machine", at: float = 0.0) -> int:
        """Arm the timeline on ``machine``; returns the faults installed.

        ``at`` is the campaign time at which this machine starts running:
        fault windows are shifted left by ``at``, windows already over are
        skipped, and windows already open start immediately with their
        remaining duration.  Requires the machine's engine to be at its
        start-of-run clock (install before running).
        """
        installed = 0
        for fault in self.faults:
            start = fault.start - at
            end = None if fault.end is None else fault.end - at
            if end is not None and end <= 0.0:
                continue  # window fully in the past
            start = max(0.0, start)
            self._arm(machine, fault, start, end)
            installed += 1
        return installed

    def _arm(
        self,
        machine: "Machine",
        fault: Fault,
        start: float,
        end: Optional[float],
    ) -> None:
        engine = machine.engine
        label = fault.label()
        base = engine.now

        if isinstance(fault, WindowFault):
            machine.faults.add_window_fault(
                base + start, None if end is None else base + end,
                fault.node, fault.slots_available,
            )
            apply_fn, revert_fn = None, None
        elif isinstance(fault, CounterStall):
            machine.faults.add_counter_stall(
                base + start, None if end is None else base + end, fault.node,
            )
            apply_fn, revert_fn = None, None
        elif isinstance(fault, LinkFlap):
            apply_fn, revert_fn = self._link_flap_actions(machine, fault)
        elif isinstance(fault, NodeSlowdown):
            apply_fn, revert_fn = self._slowdown_actions(machine, fault)
        elif isinstance(fault, TreePortFlap):
            apply_fn, revert_fn = self._tree_port_actions(machine, fault)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown fault type {type(fault).__name__}")

        # The window's start callback is unique to it, so it keys the
        # window's interval in the recorder.
        def on_start(_value) -> None:
            telemetry = engine.telemetry
            if telemetry is not None:
                telemetry.fault_started(engine.now, on_start, label)
            if apply_fn is not None:
                apply_fn()

        def on_end(_value) -> None:
            if revert_fn is not None:
                revert_fn()
            telemetry = engine.telemetry
            if telemetry is not None:
                telemetry.flow_finished(engine.now, on_start)

        engine.call_at(base + start, on_start, None)
        if end is not None:
            engine.call_at(base + end, on_end, None)

    # -- capacity-fault actions ------------------------------------------
    @staticmethod
    def _link_flap_actions(machine: "Machine", fault: LinkFlap):
        _check_factor(fault.factor)
        network = machine.network
        scaled: List = []

        def hook(key, channel) -> None:
            if network.channel_touches(key, fault.node):
                channel.set_capacity(channel.capacity * fault.factor)
                scaled.append(channel)

        def apply() -> None:
            for channel in network.channels_touching(fault.node):
                channel.set_capacity(channel.capacity * fault.factor)
                scaled.append(channel)
            network.add_channel_hook(hook)

        def revert() -> None:
            network.remove_channel_hook(hook)
            for channel in scaled:
                channel.set_capacity(channel.capacity / fault.factor)
            scaled.clear()

        return apply, revert

    @staticmethod
    def _slowdown_actions(machine: "Machine", fault: NodeSlowdown):
        _check_factor(fault.factor)
        node = machine.nodes[fault.node]
        dma = machine.nodes[fault.node].dma

        def reapply() -> None:
            # set_working_set just reinstalled the regime capacity; rescale.
            node.mem.set_capacity(node.mem.capacity * fault.factor)

        def apply() -> None:
            node.mem.set_capacity(node.mem.capacity * fault.factor)
            dma.set_capacity(dma.capacity * fault.factor)
            machine.add_reapply_hook(reapply)

        def revert() -> None:
            machine.remove_reapply_hook(reapply)
            node.mem.set_capacity(node.mem.capacity / fault.factor)
            dma.set_capacity(dma.capacity / fault.factor)

        return apply, revert

    @staticmethod
    def _tree_port_actions(machine: "Machine", fault: TreePortFlap):
        _check_factor(fault.factor)
        node = machine.nodes[fault.node]
        port = node.tree_down if fault.direction == "down" else node.tree_up

        def apply() -> None:
            port.set_capacity(port.capacity * fault.factor)

        def revert() -> None:
            port.set_capacity(port.capacity / fault.factor)

        return apply, revert

    # -- generation -------------------------------------------------------
    @classmethod
    def random(
        cls,
        rng,
        nnodes: int,
        *,
        horizon_us: float,
        max_faults: int = 3,
    ) -> "FaultSchedule":
        """Draw a seeded random campaign of 1..``max_faults`` fault windows.

        ``rng`` is a :class:`numpy.random.Generator`; the same generator
        state always yields the same schedule, which is what makes chaos
        campaigns replayable from a single seed.  Window starts land in the
        first half of ``horizon_us``; durations are sized around the
        default retry-backoff budget so both recovery outcomes — retry
        succeeds, retry exhausts and falls back — occur across a campaign.
        """
        kinds = ("link", "slowdown", "treeport", "window", "ctrstall")
        faults: List[Fault] = []
        for _ in range(int(rng.integers(1, max_faults + 1))):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            node = int(rng.integers(0, nnodes))
            start = float(rng.uniform(0.0, horizon_us * 0.5))
            duration = float(rng.uniform(horizon_us * 0.05, horizon_us * 0.6))
            factor = float(rng.uniform(0.2, 0.8))
            if kind == "link":
                faults.append(LinkFlap(start, duration, node, factor))
            elif kind == "slowdown":
                faults.append(NodeSlowdown(start, duration, node, factor))
            elif kind == "treeport":
                direction = "down" if rng.integers(0, 2) == 0 else "up"
                faults.append(
                    TreePortFlap(start, duration, node, factor, direction)
                )
            elif kind == "window":
                faults.append(WindowFault(start, duration, node, 0))
            else:
                faults.append(CounterStall(start, duration, node))
        return cls(faults)


def _check_factor(factor: float) -> None:
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"factor must be in (0, 1], got {factor}")
