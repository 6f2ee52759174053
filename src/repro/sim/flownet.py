"""Max-min fair fluid-flow network.

This is the bandwidth heart of the whole simulator.  Every data movement in
the modelled machine — a DMA putting packets on a torus link, a core copying
out of a peer's mapped buffer, the collective network draining into memory —
is a *flow* that simultaneously consumes several *resources*, each with a
finite capacity in bytes/µs:

* a flow has a payload size (bytes) and an optional per-flow rate cap
  (e.g. a single core cannot copy faster than its load/store pipeline);
* a flow uses each resource with a *weight* — a memory copy moves two raw
  bytes (read + write) per payload byte, so it uses the memory port with
  weight 2, while a network reception writes one raw byte per payload byte
  (weight 1);
* at any instant, flow rates are the weighted max-min fair allocation
  (progressive filling): all unfrozen flows grow at the same payload rate
  until a resource saturates or a flow hits its cap.

This fluid model is the standard way to reason about shared buses and
engines, and it is exactly the accounting the paper does informally: the
BG/P DMA "can keep all six links busy" (6 x 425 = 2550 MB/s of its budget)
"but it is not enough to concurrently transfer the data within the node"
(section V-A-1).  With the DMA modelled as a resource, that sentence becomes
an emergent property instead of a hard-coded constant.

Efficiency: rates only change when a flow starts, finishes, or a capacity is
reconfigured, and a change only affects the *connected component* of flows
that (transitively) share resources.  Two solver paths compute that
component:

* the **incremental fast path** (default) keeps a component cache — a
  union-find forest over flows — so starting a flow unions the components
  of its resources in O(α) instead of walking the component, and only a
  finish of a multi-resource flow (a potential articulation point) pays a
  split-detection traversal;
* the **reference slow path** (``REPRO_SIM_SLOWPATH=1`` or
  ``FlowNetwork(engine, incremental=False)``) rediscovers the component by
  graph traversal on every perturbation, exactly as the original solver
  did.

Both paths feed the same progressive-filling loop (``_fill_scalar``) and
produce bit-identical rates and completion times; the property suite
asserts this on randomized flow graphs and on full collective scenarios.
A network fixes both modes when it is built (:meth:`FlowNetwork.configure`
may change them only while no flow is in flight).
Each resource additionally maintains running accumulators — ``load``
(weighted bytes/µs currently flowing) and the active weight sum — so
per-event bookkeeping is O(1) instead of O(flows).  ``REPRO_SIM_DEBUG=1``
cross-checks every accumulator and the component cache against a
from-scratch recomputation on every fill.

On a torus the component of a finish or a start is often the whole
machine, yet most of its re-solves add or remove one flow and leave every
round of the fill unchanged.  So the incremental path serves a re-solve
in one of two ways: by a **delta re-fill** where one provably applies,
else by a full fill:

* a full fill of a component of ``_CERT_MIN_FLOWS`` (32) or more flows
  leaves a *certificate* on its root (``_Certificate``): per round its
  ``alpha``, level, how many resources and caps reached ``alpha``
  exactly, and which flows froze in it;
* when one flow joins or leaves that component at the instant the
  certificate holds (every flow advanced to it, every resource folded),
  the network re-runs the fill's rounds for that flow's resources only,
  with the fill's own float operations (``_delta_plan``), and commits
  only if every round, and so every other flow's rate, provably stays
  the same.  Otherwise it refuses with no side effect and a full fill
  serves the re-solve;
* the commit reproduces every side effect of a full re-solve in the same
  order: the joining flow's rate, busy-integral folds, the fill's load
  fold, and the post-loop's calls for the due flows and the joining flow.

A re-solve's post-loop queues each flow it finds due instead of finishing
it on the spot, and the network finishes queued flows first in, first out,
once that post-loop has run (``_drain``).  A finish re-solves its
component, and that re-solve queues the flows it finds due behind the
rest, so a cascade of flows due at one instant runs in one loop, however
long, and no re-solve runs inside another's post-loop.

A capacity change and a clock rebase drop every certificate
(``drop_certificates``).  The slow path never reads certificates, so it
stays the oracle delta re-fills are tested against, and under
``REPRO_SIM_DEBUG=1`` every delta re-fill is followed by a full fill that
must reproduce its rates, loads and certificate bit for bit.
``resolves``, ``full_fills``, ``delta_refills``, ``delta_refusals`` and
``delta_cascades`` count how each re-solve was served.

Every resource carries a *kind* (``links``, ``mem``, ``dma``,
``tree_up``, ``tree_down``, ``proto_core``), fixed where the resource is
created.  The utilization profile groups resources by kind, and the
Chrome trace puts each flow on the row its resources' kinds give.  A
recorder attached to the engine (``engine.telemetry``) is told when each
flow starts and finishes; without one, the solver reads one attribute
per flow and records nothing.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event, Waitable
from repro.util.config import setting

_EPS_BYTES = 1e-6
_EPS_RATE = 1e-9

#: smallest component whose full fill leaves a certificate for delta
#: re-fills.  A delta re-fill costs about the same whatever the
#: component's size, while a full fill grows with it: from this size up
#: a re-fill costs a third of a full fill or less, below it a re-fill
#: saves much less (docs/performance.md, "Delta re-fills")
_CERT_MIN_FLOWS = 32

#: resource kinds: torus/fabric wires, a node's memory port, its DMA
#: engine, its two collective-network ports, and a protocol core
KIND_LINKS = "links"
KIND_MEM = "mem"
KIND_DMA = "dma"
KIND_TREE_UP = "tree_up"
KIND_TREE_DOWN = "tree_down"
KIND_PROTO_CORE = "proto_core"
#: the kind of a resource created without one (bare test networks)
KIND_OTHER = "other"


class FlowResource:
    """A capacity-constrained port/engine/link inside a :class:`FlowNetwork`."""

    __slots__ = (
        "name", "kind", "capacity", "flows", "network", "component",
        "_busy_acc", "_busy_last", "_load", "_wsum", "_wsum_prev",
        "_fill_slack", "_fill_wsum", "_fill_epoch",
    )

    def __init__(self, network: "FlowNetwork", name: str, capacity: float,
                 kind: str = KIND_OTHER):
        if not capacity > 0:
            raise ValueError(f"resource {name!r}: capacity must be > 0")
        self.network = network
        self.name = name
        self.kind = kind
        self.capacity = float(capacity)
        #: flows using this resource, in creation order (a flow joins its
        #: resources only when it is created)
        self.flows: Dict["Flow", None] = {}
        #: component-cache entry point (fast path); None when idle
        self.component: Optional["_Component"] = None
        #: time-integral of load (raw bytes) — the utilization monitor
        self._busy_acc = 0.0
        self._busy_last = 0.0
        #: running weighted consumption (bytes/µs) — kept in sync by the
        #: solver so the ``load`` property is O(1)
        self._load = 0.0
        #: running weight sum over active flows — the progressive filler's
        #: starting ``wsum`` without an O(flows) rebuild
        self._wsum = 0.0
        #: ``_wsum`` before the last flow joined or left: the sum the
        #: component's last fill (or delta re-fill) was seeded with
        self._wsum_prev = 0.0
        # per-fill scratch state, validity tagged by epoch counters
        self._fill_slack = 0.0
        self._fill_wsum = 0.0
        self._fill_epoch = 0

    def set_capacity(self, capacity: float) -> None:
        """Reconfigure capacity; re-solves the affected component immediately.

        Used by the memory-system model when the cache working-set regime
        changes between collective invocations.
        """
        if not capacity > 0:
            raise ValueError(f"resource {self.name!r}: capacity must be > 0")
        self.integrate(self.network.engine.now)
        self.capacity = float(capacity)
        # Every certificate read the old capacities.
        self.network.drop_certificates()
        self.network._resolve_component_of_resources([self])

    @property
    def load(self) -> float:
        """Current total weighted consumption (bytes/µs); O(1)."""
        if self.network._debug:
            fresh = sum(f.rate * f.usage[self] for f in self.flows)
            if abs(fresh - self._load) > 1e-9 * max(1.0, abs(fresh)):
                raise SimulationError(
                    f"resource {self.name!r}: load accumulator drifted "
                    f"({self._load} vs recomputed {fresh})"
                )
        return self._load

    def integrate(self, now: float) -> None:
        """Fold the current load into the busy-time integral up to ``now``.

        Called by the network before any event that changes this resource's
        load (flow rate changes, arrivals, departures, capacity changes).
        """
        if now > self._busy_last:
            self._busy_acc += self._load * (now - self._busy_last)
            self._busy_last = now

    def busy_integral(self, now: float) -> float:
        """Total raw bytes served through this resource up to ``now``."""
        return self._busy_acc + self._load * max(0.0, now - self._busy_last)

    def utilization(self, now: float, since: float = 0.0) -> float:
        """Mean load / capacity over ``[since, now]`` (0 when empty window).

        The busy integral is never reset, so ``since`` must be the
        clock's origin: 0 on a clock never rebased, ``-rebased_us`` of
        a machine whose clock :meth:`Machine.rebase_time` moved.
        """
        window = now - since
        if window <= 0:
            return 0.0
        return self.busy_integral(now) / (self.capacity * window)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlowResource {self.name} cap={self.capacity} n={len(self.flows)}>"


class Flow(Waitable):
    """One in-flight transfer across a set of resources.

    A flow is itself a waitable: a process may ``yield`` the flow returned by
    :meth:`FlowNetwork.transfer` and resumes when the transfer completes.
    """

    __slots__ = (
        "name",
        "nbytes",
        "remaining",
        "cap",
        "usage",
        "usage_items",
        "rate",
        "event",
        "last_update",
        "generation",
        "finished",
        "component",
        "seq",
    )

    def __init__(
        self,
        name: str,
        nbytes: float,
        cap: float,
        usage: Dict[FlowResource, float],
        event: Event,
        now: float,
        seq: int = 0,
    ):
        self.seq = seq
        self.name = name
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.cap = cap
        self.usage = usage
        #: frozen (resource, weight) pairs — ``usage`` never changes after
        #: construction, so the hot loops iterate this list instead of
        #: re-materialising dict views
        self.usage_items = list(usage.items())
        self.rate = 0.0
        self.event = event
        self.last_update = now
        self.generation = 0
        self.finished = False
        self.component: Optional["_Component"] = None

    def subscribe(self, process) -> None:
        self.event.subscribe(process)

    def advance(self, now: float) -> None:
        """Progress ``remaining`` using the rate held since ``last_update``."""
        dt = now - self.last_update
        if dt > 0:
            self.remaining -= self.rate * dt
        self.last_update = now


class _Component:
    """One connected component of the flow/resource sharing graph.

    Nodes of a union-find forest: ``parent`` is None on roots; only roots
    own a ``flows`` dict (insertion-ordered member set).  ``dirty`` marks a
    root whose membership may be an over-approximation (a multi-resource
    flow finished, so the component may have split); a dirty root is
    re-carved by traversal before its next resolve.  ``cert`` is the
    certificate of the root's last fill, or None.
    """

    __slots__ = ("flows", "parent", "dirty", "cert")

    def __init__(self):
        self.flows: Optional[Dict[Flow, None]] = {}
        self.parent: Optional["_Component"] = None
        self.dirty = False
        self.cert: Optional["_Certificate"] = None


class _Certificate:
    """What one full fill of a component decided, kept so a later re-solve
    after one flow joins or leaves can re-fill only that flow's resources
    (see :meth:`FlowNetwork._delta_plan`).

    Per round ``k`` of the fill: ``alphas[k]`` and ``levels[k]``;
    ``hits[k]``, how many live resources had ``slack / wsum ==
    alphas[k]`` exactly; ``caps[k]``, how many active flows had ``cap -
    levels[k-1] == alphas[k]`` exactly (nonzero only in a round the
    minimum cap bound); ``frozen[k]``, the flows that froze in it, in
    creation order.  The weight sum the fill seeded each resource with is
    the resource's ``_wsum`` until a flow joins or leaves it, and its
    ``_wsum_prev`` right after.  The certificate holds at engine time
    ``now`` while the network's certificate generation is ``gen``: every
    flow of the component was advanced to ``now`` and every resource
    folded to it.

    A delta re-fill also needs ``round_of`` (flow -> the round it froze
    in) and ``due`` (the flows with ``remaining <= _EPS_BYTES``, in
    creation order); :meth:`index` builds them on first use, so a
    certificate no delta re-fill reads costs only its rounds.
    """

    __slots__ = (
        "alphas", "levels", "hits", "caps", "frozen", "round_of", "due",
        "now", "gen",
    )

    def __init__(self, now: float, gen: int):
        self.alphas: List[float] = []
        self.levels: List[float] = []
        self.hits: List[int] = []
        self.caps: List[int] = []
        self.frozen: List[List[Flow]] = []
        self.round_of: Optional[Dict[Flow, int]] = None
        self.due: List[Flow] = []
        self.now = now
        self.gen = gen

    def index(self) -> None:
        """Build ``round_of`` and ``due`` from the frozen flows, once.  At
        the certificate's instant no flow's ``remaining`` moves, except
        that a finished flow's drops to 0."""
        if self.round_of is not None:
            return
        round_of: Dict[Flow, int] = {}
        for k, frozen in enumerate(self.frozen):
            round_of.update(dict.fromkeys(frozen, k))
        self.round_of = round_of
        due = [
            flow for flow in round_of
            if flow.remaining <= _EPS_BYTES and not flow.finished
        ]
        due.sort(key=_flow_seq_key)
        self.due = due

    def record(self) -> tuple:
        """Everything the fill decided, for the debug cross-check."""
        self.index()
        return (
            self.alphas, self.levels, self.hits, self.caps, self.frozen,
            self.round_of, self.due,
        )


#: canonical solver ordering — creation order (C-level getter, hot sort key)
_flow_seq_key = attrgetter("seq")


def _rate_moved(rate: float, old: float) -> bool:
    """Whether a re-solve moved a flow's rate by more than last-bit jitter
    (re-solving a component whose membership changed elsewhere can
    produce meaningless jitter); only a moved flow gets a fresh deadline."""
    if rate == old:
        return False
    tol = rate if rate > old else old
    if tol < 1.0:
        tol = 1.0
    delta = rate - old
    return delta > 1e-12 * tol or -delta > 1e-12 * tol


def _find(component: _Component) -> _Component:
    """Union-find root lookup with path compression."""
    root = component
    while root.parent is not None:
        root = root.parent
    while component.parent is not None:
        component.parent, component = root, component.parent
    return root


class FlowNetwork:
    """Container of resources and flows with max-min fair rate allocation.

    ``incremental`` selects the component-cache fast path (default) or the
    traversal-per-perturbation reference path; ``None`` reads the
    ``REPRO_SIM_SLOWPATH`` environment variable.  ``debug`` (``None``:
    ``REPRO_SIM_DEBUG``) cross-checks the O(1) accumulators against
    from-scratch recomputation at every solve.  Both are read once, here.
    """

    def __init__(
        self,
        engine: Engine,
        incremental: Optional[bool] = None,
        debug: Optional[bool] = None,
    ):
        self.engine = engine
        self.resources: List[FlowResource] = []
        #: cumulative payload bytes completed (for utilisation reporting)
        self.bytes_completed = 0.0
        self.flows_completed = 0
        #: work counts: every re-solve is served by exactly one of a full
        #: fill or a delta re-fill (debug cross-checks are not counted)
        self.resolves = 0
        self.delta_refills = 0
        #: delta re-fills tried and refused; each then fell back to a
        #: full fill
        self.delta_refusals = 0
        #: delta re-fills that found due flows still waiting in the finish
        #: queue, i.e. ran inside a finish cascade
        self.delta_cascades = 0
        self._cert_gen = 0
        #: due flows waiting to finish, first in, first out, and whether
        #: ``_drain`` is finishing them
        self._due: List[Flow] = []
        self._draining = False
        self.incremental = (not setting("REPRO_SIM_SLOWPATH")
                            if incremental is None else bool(incremental))
        self._debug = bool(setting("REPRO_SIM_DEBUG", debug))
        self._fill_epoch = 0
        self._flow_seq = 0

    @property
    def full_fills(self) -> int:
        """Re-solves served by a full fill."""
        return self.resolves - self.delta_refills

    def drop_certificates(self) -> None:
        """Invalidate every component's fill certificate.

        Needed whenever flow or resource state moves outside a re-solve:
        a capacity change and a clock rebase
        (:meth:`repro.hardware.machine.Machine.rebase_time` advances the
        in-flight flows itself).
        """
        self._cert_gen += 1

    def configure(
        self,
        incremental: Optional[bool] = None,
        debug: Optional[bool] = None,
    ) -> None:
        """Set the solver modes given (``None`` keeps one as it is).

        Only while no flow is in flight: both paths leave an idle network
        in the same state, so the new mode starts from an exact one.
        """
        if self._flow_seq != self.flows_completed:
            raise SimulationError(
                f"cannot change solver modes with "
                f"{self._flow_seq - self.flows_completed} flows in flight"
            )
        if incremental is not None:
            self.incremental = bool(incremental)
        if debug is not None:
            self._debug = bool(debug)

    @property
    def solver_mode(self) -> str:
        """The solver label recorded in manifests: slowpath / incremental."""
        return "incremental" if self.incremental else "slowpath"

    # -- construction ---------------------------------------------------
    def add_resource(self, name: str, capacity: float,
                     kind: str = KIND_OTHER) -> FlowResource:
        """Register a new resource (port, engine, or link) of ``kind``."""
        resource = FlowResource(self, name, capacity, kind)
        self.resources.append(resource)
        return resource

    # -- flows ------------------------------------------------------------
    def transfer(
        self,
        usage: Dict[FlowResource, float],
        nbytes: float,
        cap: Optional[float] = None,
        name: str = "flow",
    ) -> "Flow":
        """Start a transfer; returns the (waitable) flow.

        ``usage`` maps each consumed resource to its weight (raw bytes moved
        on that resource per payload byte).  ``cap`` optionally limits the
        flow's payload rate.  A flow must be constrained by *something*:
        either a cap or at least one resource.  Zero-byte transfers complete
        immediately.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        event = Event(self.engine)
        if nbytes == 0:
            flow = Flow("null-" + name, 0.0, math.inf, {}, event, self.engine.now)
            flow.finished = True
            event.trigger(self.engine.now)
            return flow
        for resource, weight in usage.items():
            if weight <= 0:
                raise ValueError(
                    f"flow {name!r}: weight on {resource.name!r} must be > 0"
                )
        flow_cap = float(cap) if cap is not None else math.inf
        if flow_cap is math.inf and not usage:
            raise SimulationError(f"flow {name!r} is unconstrained")
        self._flow_seq += 1
        flow = Flow(
            name, nbytes, flow_cap, dict(usage), event, self.engine.now,
            seq=self._flow_seq,
        )
        for resource, weight in flow.usage.items():
            resource.flows[flow] = None
            resource._wsum_prev = resource._wsum
            resource._wsum += weight
        telemetry = self.engine.telemetry
        if telemetry is not None:
            telemetry.flow_started(self.engine.now, flow)
        if self.incremental:
            root, joined = self._attach(flow)
            self._resolve(
                list(root.flows), root, joined=flow if joined else None
            )
        else:
            self._resolve(self._component([flow]))
        return flow

    # -- component solving --------------------------------------------------
    def _component(self, seed_flows: Iterable[Flow]) -> List[Flow]:
        """All flows transitively sharing a resource with the seeds.

        Reference traversal, used by the slow path on every perturbation and
        by the fast path only to re-carve dirty (possibly split) components.
        """
        seen: Set[Flow] = set()
        stack: List[Flow] = [f for f in seed_flows if not f.finished]
        seen.update(stack)
        visited_resources: Set[FlowResource] = set()
        while stack:
            flow = stack.pop()
            for resource in flow.usage:
                if resource in visited_resources:
                    continue
                visited_resources.add(resource)
                for other in resource.flows:
                    if other not in seen and not other.finished:
                        seen.add(other)
                        stack.append(other)
        return list(seen)

    def _attach(self, flow: Flow) -> Tuple[_Component, bool]:
        """Insert a new flow into the component cache.

        Unions the (root) components of the flow's resources; if any of them
        is dirty the true component is re-carved by traversal, so the
        component handed to the solver is always exact.  Returns the
        flow's component, and whether the flow joined exactly one existing
        clean component: the one join a delta re-fill can serve.
        """
        roots: List[_Component] = []
        for resource in flow.usage:
            entry = resource.component
            if entry is not None:
                root = _find(entry)
                if root not in roots:
                    roots.append(root)
        joined = len(roots) == 1
        if not roots:
            root = _Component()
        elif joined:
            root = roots[0]
        else:
            root = max(roots, key=lambda c: len(c.flows))
            for other in roots:
                if other is root:
                    continue
                root.flows.update(other.flows)
                root.dirty = root.dirty or other.dirty
                other.parent = root
                other.flows = None
                other.cert = None
        root.flows[flow] = None
        flow.component = root
        for resource in flow.usage:
            resource.component = root
        if root.dirty:
            return self._recarve([flow])[0], False
        return root, joined

    def _recarve(self, seeds: Iterable[Flow]) -> List[_Component]:
        """Rebuild exact components for the seeds' region of a dirty root.

        Traverses from each seed, carving a fresh clean component per
        connected region and detaching its members from their stale roots.
        Returns the carved components; together they hold exactly the
        flows the reference path would resolve for these seeds.
        """
        carved: List[_Component] = []
        seen: Set[Flow] = set()
        for seed in seeds:
            if seed.finished or seed in seen:
                continue
            component = _Component()
            carved.append(component)
            stack = [seed]
            seen.add(seed)
            visited_resources: Set[FlowResource] = set()
            while stack:
                flow = stack.pop()
                old = flow.component
                if old is not None:
                    old_root = _find(old)
                    if old_root.flows is not None:
                        old_root.flows.pop(flow, None)
                component.flows[flow] = None
                flow.component = component
                for resource in flow.usage:
                    if resource in visited_resources:
                        continue
                    visited_resources.add(resource)
                    resource.component = component
                    for other in resource.flows:
                        if other not in seen and not other.finished:
                            seen.add(other)
                            stack.append(other)
        return carved

    def _resolve_component_of_resources(
        self,
        resources: Iterable[FlowResource],
        left: Optional[Flow] = None,
        cert: Optional[_Certificate] = None,
    ) -> None:
        """Re-solve every flow (transitively) affected by these resources.

        ``left`` is a flow that just finished on them and ``cert`` the
        certificate its component held: if the remaining flows still form
        one component, the certificate moves to it, so that a delta
        re-fill can serve the re-solve.
        """
        if not self.incremental:
            seeds: List[Flow] = []
            for resource in resources:
                seeds.extend(resource.flows)
            if seeds:
                self._resolve(self._component(seeds))
            return
        roots: List[_Component] = []
        dirty = False
        for resource in resources:
            if resource.flows and resource.component is not None:
                root = _find(resource.component)
                if root not in roots:
                    roots.append(root)
                    dirty = dirty or root.dirty
        if not roots:
            return
        if dirty:
            seeds = []
            for resource in resources:
                seeds.extend(resource.flows)
            roots = self._recarve(seeds)
        if len(roots) == 1:
            root = roots[0]
            if cert is not None:
                root.cert = cert
                self._resolve(list(root.flows), root, left=left)
            else:
                self._resolve(list(root.flows), root)
        else:
            group: List[Flow] = []
            for root in roots:
                # Filled together, no root keeps what its certificate says.
                root.cert = None
                group.extend(root.flows)
            self._resolve(group)

    def _resolve(
        self,
        flows: List[Flow],
        root: Optional[_Component] = None,
        joined: Optional[Flow] = None,
        left: Optional[Flow] = None,
    ) -> None:
        """Advance, re-solve rates (progressive filling), reschedule.

        Only flows whose rate actually changed get a fresh deadline; an
        unchanged flow's previously scheduled completion stays valid, which
        keeps the event heap small when large components re-solve often.
        Due flows are queued, and finished by :meth:`_drain` once the
        post-loop has run, or by the drain already running.

        Flows are processed in creation order — a canonical order shared by
        the fast and reference paths, so event tie-breaking (and therefore
        the whole simulation) is independent of how the component was
        discovered and of interpreter memory layout.

        ``root`` is the component whose flows are exactly ``flows`` (None
        for a group of several components, and on the reference path).
        A re-solve is served one of two ways.  When one flow ``joined`` or
        ``left`` the root at an instant its certificate still holds, a
        delta re-fill is tried first (see the module docstring).  If none
        is tried, or it refuses, a full fill serves the re-solve; a full
        fill of a root of ``_CERT_MIN_FLOWS`` flows or more leaves a new
        certificate on it, and any other re-solve leaves none.
        """
        self.resolves += 1
        now = self.engine.now
        if root is not None:
            cert, root.cert = root.cert, None
            if (
                cert is not None
                and (joined is not None or left is not None)
                and cert.now == now
                and cert.gen == self._cert_gen
            ):
                if self._delta(flows, root, cert, joined, left):
                    if self._due and not self._draining:
                        self._drain()
                    return
                self.delta_refusals += 1
        flows.sort(key=_flow_seq_key)
        # One pass: advance each flow at its old rate, fold each
        # resource's pre-change load into its busy integral
        # (resource.integrate, inlined for the hot path) and seed the
        # fill's scratch state.
        epoch = self._fill_epoch = self._fill_epoch + 1
        old_rates: List[float] = []
        resources: List[FlowResource] = []
        for flow in flows:
            if now > flow.last_update:
                flow.remaining -= flow.rate * (now - flow.last_update)
            flow.last_update = now
            old_rates.append(flow.rate)
            for r in flow.usage:
                if r._fill_epoch != epoch:
                    r._fill_epoch = epoch
                    if now > r._busy_last:
                        r._busy_acc += r._load * (now - r._busy_last)
                        r._busy_last = now
                    r._fill_slack = r.capacity
                    r._fill_wsum = r._wsum
                    resources.append(r)
        if self._debug:
            self._check_accumulators(flows, resources)
        cert = self._fill_scalar(
            flows, resources,
            root is not None and len(flows) >= _CERT_MIN_FLOWS,
        )
        if cert is not None:
            root.cert = cert
        for flow, old in zip(flows, old_rates):
            rate = flow.rate
            if rate != old:
                # Tolerant comparison (see _rate_moved, inlined for the
                # hot path).
                tol = rate if rate > old else old
                if tol < 1.0:
                    tol = 1.0
                delta = rate - old
                if delta > 1e-12 * tol or -delta > 1e-12 * tol:
                    self._schedule_completion(flow)
                    continue
            if flow.remaining <= _EPS_BYTES:
                self._schedule_completion(flow)
        if self._due and not self._draining:
            self._drain()

    def _delta(
        self,
        flows: List[Flow],
        root: _Component,
        cert: _Certificate,
        joined: Optional[Flow],
        left: Optional[Flow],
    ) -> bool:
        """Serve a re-solve by a delta re-fill: the state a full fill of
        ``flows`` would leave, with only the moved flow's resources
        re-solved.

        Returns False, having changed nothing, when the certificate cannot
        prove that every round of the fill stays the same (see
        :meth:`_delta_plan`).  Otherwise commits the joining flow's rate,
        the moved flow's resources' busy integrals and loads, and the
        updated certificate, then runs the post-loop of a full re-solve.
        """
        cert.index()
        plan = self._delta_plan(cert, joined, left)
        if plan is None:
            return False
        hits, caps, rounds, joined_round = plan
        if joined is not None:
            moved = joined
            level = cert.levels[joined_round]
            joined.rate = (
                joined.cap if level >= joined.cap - _EPS_RATE else level
            )
            cert.round_of[joined] = joined_round
            cert.frozen[joined_round].append(joined)  # the newest flow
        else:
            moved = left
            cert.frozen[cert.round_of.pop(left)].remove(left)
            if rounds < len(cert.alphas):
                # The left flow froze alone in the last round.
                del cert.alphas[rounds:], cert.levels[rounds:]
                del cert.frozen[rounds:]
        cert.hits = hits
        cert.caps = caps
        now = self.engine.now
        for r in moved.usage:
            if not r.flows:
                continue  # idle now: out of the component
            if now > r._busy_last:
                r._busy_acc += r._load * (now - r._busy_last)
                r._busy_last = now
            # The fill's own fold: 0.0 plus each flow's rate * weight in
            # creation order.
            load = 0.0
            for flow in r.flows:
                load += flow.rate * flow.usage[r]
            r._load = load
        due = [flow for flow in cert.due if not flow.finished]
        cert.due = due
        if joined is not None and joined.remaining <= _EPS_BYTES:
            cert.due = due + [joined]
        root.cert = cert
        self.delta_refills += 1
        if self._debug:
            self._check_delta(flows, cert)
        # The post-loop of a full re-solve, which visits the group in
        # creation order and acts on each flow whose rate moved or that
        # is due: only the joining flow's rate moved, and it is the newest.
        if due:
            self.delta_cascades += 1
            for flow in due:
                self._schedule_completion(flow)
        if joined is not None and (
            _rate_moved(joined.rate, 0.0) or joined.remaining <= _EPS_BYTES
        ):
            self._schedule_completion(joined)
        return True

    def _delta_plan(
        self,
        cert: _Certificate,
        joined: Optional[Flow],
        left: Optional[Flow],
    ) -> Optional[tuple]:
        """Re-run the certified fill's rounds for the moved flow's
        resources only, with the fill's own float operations, and decide
        whether a full fill would keep every round.

        For each resource of the flow that joined or left, this recomputes
        its ``(slack, wsum)`` trajectory over the certified rounds twice:
        as the certified fill saw it (seeded with ``_wsum_prev``) and as a
        fill now would (seeded with ``_wsum``).  Each
        round subtracts ``wsum * alpha`` from the slack while ``wsum >
        _EPS_RATE``, then the weights of the flows frozen in it, in
        creation order, a joining flow last.  No other resource needs
        work: none of its inputs changed.  A full fill would keep every
        round, and so every other flow's rate, if:

        * no new candidate (a resource's ``slack / wsum``, or the joining
          flow's ``cap - level``) falls below the round's ``alpha``, and
          at least one candidate still reaches it;
        * each of the resources saturates (``slack <= _EPS_RATE``) in
          the same round as before, as far as its other flows can tell:
          both rounds are capped at one past the last round any of them
          froze in;
        * a joining flow freezes by the last certified round, and no
          round is left without a frozen flow (a leaving flow that froze
          alone in the last round ends the fill a round early).

        Returns None to refuse, else ``(hits, caps, rounds,
        joined_round)``: the new per-round hit counts, the new number of
        rounds, and the round a joining flow freezes in.
        """
        alphas = cert.alphas
        levels = cert.levels
        round_of = cert.round_of
        rounds = len(alphas)
        if joined is not None:
            moved = joined
            left_round = -1
            # Most refused joins make the joining flow's own resource, or
            # its cap, the first round's bottleneck: check those before
            # building any trajectory.
            alpha = alphas[0]
            if joined.cap < alpha:
                return None
            for r, _w in joined.usage_items:
                w = r._wsum
                if w > _EPS_RATE and r.capacity / w < alpha:
                    return None
        else:
            moved = left
            left_round = round_of[left]
            if len(cert.frozen[left_round]) == 1:
                if left_round != rounds - 1:
                    return None  # the round would freeze no flow
                rounds -= 1
        resources = [r for r, _w in moved.usage_items]
        weights = [w for _r, w in moved.usage_items]
        n = len(resources)
        slack_old = [r.capacity for r in resources]
        slack_new = list(slack_old)
        wsum_old = [r._wsum_prev for r in resources]
        wsum_new = [r._wsum for r in resources]
        # First round each trajectory saturates in; ``rounds`` for never.
        sat_old = [rounds] * n
        sat_new = [rounds] * n
        # Built after round 0, which most refusals do not outlast: per
        # resource, the (round, weight, kept) of its flows in creation
        # order (the order the fill subtracts weights in), ``kept`` False
        # for a leaving flow, and the last round its other flows froze in.
        steps: List[List[Tuple[int, float, bool]]] = []
        last: List[int] = []
        new_hits: List[int] = []
        new_caps: List[int] = []
        joined_round = -1
        prev_level = 0.0
        for k in range(rounds):
            alpha = alphas[k]
            hits = cert.hits[k]
            caps = cert.caps[k]
            if joined is not None:
                if joined_round < 0:
                    d = joined.cap - prev_level
                    if d < alpha:
                        return None
                    if d == alpha:
                        caps += 1
            elif k <= left_round and left.cap - prev_level == alpha:
                caps -= 1
            stuck = False
            for i in range(n):
                w = wsum_old[i]
                if w > _EPS_RATE:
                    s = slack_old[i]
                    if s / w == alpha:
                        hits -= 1
                    slack_old[i] = s - w * alpha
                if slack_old[i] <= _EPS_RATE and sat_old[i] > k:
                    sat_old[i] = k
                w = wsum_new[i]
                if w > _EPS_RATE:
                    s = slack_new[i]
                    a = s / w
                    if a < alpha:
                        return None
                    if a == alpha:
                        hits += 1
                    slack_new[i] = s - w * alpha
                if slack_new[i] <= _EPS_RATE:
                    stuck = True
                    if sat_new[i] > k:
                        sat_new[i] = k
            if hits + caps <= 0:
                return None  # alpha would rise
            new_hits.append(hits)
            new_caps.append(caps)
            level = levels[k]
            if (
                joined_round < 0
                and joined is not None
                and (level >= joined.cap - _EPS_RATE or stuck)
            ):
                joined_round = k
            if not steps:
                for r, w in zip(resources, weights):
                    step = [
                        (round_of[f], f.usage[r], True)
                        for f in r.flows if f is not joined
                    ]
                    last.append(max(step)[0] if step else -1)
                    if left is not None:
                        at = len(step)
                        for i, f in enumerate(r.flows):
                            if f.seq > left.seq:
                                at = i
                                break
                        step.insert(at, (left_round, w, False))
                    steps.append(step)
            for i in range(n):
                for k_frozen, w, kept in steps[i]:
                    if k_frozen == k:
                        wsum_old[i] -= w
                        if kept:
                            wsum_new[i] -= w
                if joined_round == k:
                    wsum_new[i] -= weights[i]
            prev_level = level
        if joined is not None and joined_round < 0:
            return None  # the joining flow would outlast the fill
        for i in range(n):
            cut = last[i] + 1
            if min(sat_old[i], cut) != min(sat_new[i], cut):
                return None
        return new_hits, new_caps, rounds, joined_round

    def _check_delta(self, flows: List[Flow], cert: _Certificate) -> None:
        """Debug-mode guard: a delta re-fill left the rates, loads and
        certificate that a full fill of the same component computes, bit
        for bit."""
        now = self.engine.now
        flows = sorted(flows, key=_flow_seq_key)
        epoch = self._fill_epoch = self._fill_epoch + 1
        resources: List[FlowResource] = []
        for flow in flows:
            if flow.last_update != now:
                raise SimulationError(
                    f"delta re-fill: flow {flow.name!r} was not advanced "
                    "to this instant"
                )
            for r in flow.usage:
                if r._fill_epoch != epoch:
                    r._fill_epoch = epoch
                    if r._busy_last != now:
                        raise SimulationError(
                            f"delta re-fill: resource {r.name!r} was not "
                            "folded to this instant"
                        )
                    r._fill_slack = r.capacity
                    r._fill_wsum = r._wsum
                    resources.append(r)
        self._check_accumulators(flows, resources)
        rates = [flow.rate for flow in flows]
        loads = [r._load for r in resources]
        fresh = self._fill_scalar(flows, resources, True)
        if (
            fresh is None
            or rates != [flow.rate for flow in flows]
            or loads != [r._load for r in resources]
            or fresh.record() != cert.record()
        ):
            raise SimulationError(
                "delta re-fill disagrees with a full fill of the same "
                "component on the rates, the loads or the certificate"
            )

    def _fill_scalar(
        self,
        flows: List[Flow],
        resources: List[FlowResource],
        record: bool = False,
    ) -> Optional[_Certificate]:
        """Weighted max-min fair allocation for one component.

        Level-based progressive filling: all unfrozen flows share a common
        rate *level* that rises until either a flow's cap or a resource's
        capacity binds; bound flows freeze at the current level and the
        remainder keeps rising.  Per round this costs O(resources + active
        flows); the number of rounds is the number of distinct binding
        events, which is small in practice.

        Sets every flow's rate and every resource's load.  Expects the
        per-fill scratch (``_fill_slack``/``_fill_wsum``) seeded by
        :meth:`_resolve`.  With ``record``, returns the fill's certificate,
        or None if a round clamped a negative ``alpha`` to 0.
        """
        active = list(flows)
        live = resources  # resources whose active weight sum is still > 0
        level = 0.0
        cert = None
        if record:
            cert = _Certificate(self.engine.now, self._cert_gen)
            hits = 0
        while active:
            # One pass: find the binding resource AND compact resources
            # whose weight sum drained (their flows all froze) out of the
            # next round's scans.  A drained resource can never re-arm —
            # frozen flows stay frozen — so dropping it is exact.
            alpha = math.inf
            next_live: List[FlowResource] = []
            if cert is None:
                for r in live:
                    w = r._fill_wsum
                    if w > _EPS_RATE:
                        next_live.append(r)
                        a = r._fill_slack / w
                        if a < alpha:
                            alpha = a
            else:
                # The same scan, also counting the resources that reach
                # the minimum.
                hits = 0
                for r in live:
                    w = r._fill_wsum
                    if w > _EPS_RATE:
                        next_live.append(r)
                        a = r._fill_slack / w
                        if a < alpha:
                            alpha = a
                            hits = 1
                        elif a == alpha:
                            hits += 1
            live = next_live
            min_cap = math.inf
            for flow in active:
                if flow.cap < min_cap:
                    min_cap = flow.cap
            d = min_cap - level
            if d < alpha:
                alpha = d
                hits = 0
            if alpha is math.inf:
                names = ", ".join(f.name for f in active[:4])
                raise SimulationError(
                    f"unconstrained flows in component: {names}"
                )
            if alpha < 0.0:
                alpha = 0.0
                cert = None
            if cert is not None:
                cert.alphas.append(alpha)
                cert.hits.append(hits)
                # Only when the minimum cap binds can any cap reach alpha.
                cert.caps.append(
                    sum([1 for f in active if f.cap - level == alpha])
                    if d == alpha else 0
                )
            level += alpha
            if cert is not None:
                cert.levels.append(level)
            for r in live:
                r._fill_slack -= r._fill_wsum * alpha
            still: List[Flow] = []
            frozen: List[Flow] = []
            for flow in active:
                if level >= flow.cap - _EPS_RATE:
                    flow.rate = flow.cap
                    frozen.append(flow)
                    continue
                for r in flow.usage:
                    if r._fill_slack <= _EPS_RATE:
                        flow.rate = level
                        frozen.append(flow)
                        break
                else:
                    still.append(flow)
            if not frozen:
                raise SimulationError(
                    "progressive filling failed to converge (numerical issue)"
                )
            if cert is not None:
                cert.frozen.append(frozen)
            if not still:
                break  # the next fill re-seeds the scratch weight sums
            for flow in frozen:
                for r, w in flow.usage_items:
                    r._fill_wsum -= w
            active = still
        # Refresh the O(1) load accumulators from the just-computed rates.
        for r in resources:
            r._load = 0.0
        for flow in flows:
            rate = flow.rate
            for r, w in flow.usage_items:
                r._load += rate * w
        return cert

    def _check_accumulators(
        self, flows: List[Flow], resources: List[FlowResource]
    ) -> None:
        """Debug-mode guard: running accumulators match a fresh recompute."""
        for r in resources:
            fresh_wsum = sum(
                f.usage[r] for f in r.flows if not f.finished
            )
            if abs(fresh_wsum - r._wsum) > 1e-9 * max(1.0, abs(fresh_wsum)):
                raise SimulationError(
                    f"resource {r.name!r}: weight-sum accumulator drifted "
                    f"({r._wsum} vs recomputed {fresh_wsum})"
                )
        if self.incremental:
            exact = set(self._component(flows))
            if exact != set(flows):
                raise SimulationError(
                    "component cache out of sync with the sharing graph: "
                    f"cached {len(flows)} flows, exact {len(exact)}"
                )

    def _schedule_completion(self, flow: Flow) -> None:
        """Queue a due flow for ``_drain``, else push its deadline."""
        flow.generation += 1
        if flow.remaining <= _EPS_BYTES:
            self._due.append(flow)
            return
        if flow.rate <= _EPS_RATE:
            raise SimulationError(f"flow {flow.name!r} starved (rate=0)")
        eta = flow.remaining / flow.rate
        self.engine.call_after(eta, self._on_deadline, (flow, flow.generation))

    def _on_deadline(self, token: Tuple[Flow, int]) -> None:
        flow, generation = token
        if flow.finished or generation != flow.generation:
            return  # stale: rates changed since this deadline was set
        flow.advance(self.engine.now)
        # Due: queued and finished at once.  Else numerical slack: re-armed.
        self._schedule_completion(flow)
        if self._due:
            self._drain()

    def _drain(self) -> None:
        """Finish the queued due flows, first in, first out.

        Each finish re-solves its component, and that re-solve queues the
        flows it finds due behind the rest, so a cascade of flows due at
        one instant runs here, in one loop.  A flow is queued once for
        every re-solve that finds it due, and finishes the first time.
        """
        self._draining = True
        try:
            for flow in self._due:  # the list grows while this loop runs
                if not flow.finished:
                    self._finish(flow)
        finally:
            self._due.clear()
            self._draining = False

    def _finish(self, flow: Flow) -> None:
        flow.finished = True
        flow.remaining = 0.0
        resources = list(flow.usage.keys())
        now = self.engine.now
        rate = flow.rate
        for resource, weight in flow.usage_items:
            resource.integrate(now)
            resource.flows.pop(flow, None)
            resource._wsum_prev = resource._wsum
            resource._wsum -= weight
            if resource.flows:
                resource._load -= rate * weight
            else:
                # Clamp accumulator drift on an idle resource to exactly 0.
                resource._load = 0.0
                resource._wsum = 0.0
                resource.component = None
        cert = None
        if self.incremental and flow.component is not None:
            root = _find(flow.component)
            if root.flows is not None:
                root.flows.pop(flow, None)
            # The root no longer holds the flows its certificate
            # describes; the re-solve below may still use it for a delta
            # re-fill.
            cert, root.cert = root.cert, None
            flow.component = None
            if len(resources) > 1:
                # The flow may have been an articulation point: its
                # component can split, so membership must be re-carved
                # before the next resolve.
                root.dirty = True
        self.bytes_completed += flow.nbytes
        self.flows_completed += 1
        telemetry = self.engine.telemetry
        if telemetry is not None:
            telemetry.flow_finished(self.engine.now, flow)
        resolves = self.resolves
        flow.event.trigger(self.engine.now)
        if self.resolves != resolves:
            cert = None  # a trigger callback re-solved: the certificate is stale
        # Freed capacity speeds up neighbours: re-solve their component.
        self._resolve_component_of_resources(resources, flow, cert)
