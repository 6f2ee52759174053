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
See :mod:`repro.sim.config` for how the mode flags resolve at call time.
Each resource additionally maintains running accumulators — ``load``
(weighted bytes/µs currently flowing) and the active weight sum — so
per-event bookkeeping is O(1) instead of O(flows).  ``REPRO_SIM_DEBUG=1``
cross-checks every accumulator and the component cache against a
from-scratch recomputation on every fill.

Pipelined collectives re-solve the same component states over and over
(every chunk of a torus broadcast rebuilds the same flows on the same
DMA, memory and link resources), so the incremental path memoizes the
fill of any component of ``_MEMO_MIN_FLOWS`` (8) or more flows:

* the **key** is the tuple of the component's per-flow *shape ids* in
  creation order.  A shape id interns ``(cap, ((resource, weight), ...))``,
  everything the fill reads of one flow, including the order in which
  it discovers resources.  ``FlowResource.set_capacity`` empties
  the memo, so every entry was solved under the current capacities;
* a **hit** replays the stored rates and loads after checking each
  resource's running weight sum against the stored one.  The sum is the
  one fill input the shapes do not fix bit for bit: float weights carry
  residue from the add/remove history (``0.1 + 0.2 - 0.1 != 0.2``), and
  a mismatch falls back to a normal fill;
* the **bound** is ``_MEMO_MAX_ENTRIES`` (8192) entries per network;
  once full, new fills are not stored, so a cyclic pattern longer than
  the bound still hits on the entries it has.

Smaller fills (the tree broadcast's 1-4 flows) cost less than their key
and are never memoized.  The reference slow path never consults the
memo, so it stays the oracle the memo is tested against, and under
``REPRO_SIM_DEBUG=1`` every hit also runs the fill and must match the
stored entry bit for bit.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.config import SolverConfig, resolve_solver_config
from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event, Waitable

_EPS_BYTES = 1e-6
_EPS_RATE = 1e-9

#: smallest component whose fill is memoized: smaller fills cost less
#: than building their key
_MEMO_MIN_FLOWS = 8
#: memo entries per network; once full, new fills are not stored
_MEMO_MAX_ENTRIES = 8192


class FlowResource:
    """A capacity-constrained port/engine/link inside a :class:`FlowNetwork`."""

    __slots__ = (
        "name", "capacity", "flows", "network", "component",
        "_busy_acc", "_busy_last", "_load", "_wsum",
        "_fill_slack", "_fill_wsum", "_fill_epoch",
    )

    def __init__(self, network: "FlowNetwork", name: str, capacity: float):
        if not capacity > 0:
            raise ValueError(f"resource {name!r}: capacity must be > 0")
        self.network = network
        self.name = name
        self.capacity = float(capacity)
        self.flows: Set["Flow"] = set()
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
        # Every memoized fill read the old capacities.
        self.network._memo.clear()
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

        Note ``since`` must be an instant at which the busy integral was
        previously sampled as 0 or the caller tracks the baseline itself;
        the common use is the whole run, ``since=0``.
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
        "shape",
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
        #: interned id of ``(cap, usage)``; 0 until the flow first joins a
        #: component large enough for the fill memo
        self.shape = 0

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
    re-carved by traversal before its next resolve.
    """

    __slots__ = ("flows", "parent", "dirty")

    def __init__(self):
        self.flows: Optional[Dict[Flow, None]] = {}
        self.parent: Optional["_Component"] = None
        self.dirty = False


#: canonical solver ordering — creation order (C-level getter, hot sort key)
_flow_seq_key = attrgetter("seq")


def _memo_entry(flows: List[Flow], resources: List[FlowResource]) -> tuple:
    """What a fill of ``flows`` read and set, as the fill memo stores it:
    (resources in discovery order, their weight sums, their loads, the
    flow rates)."""
    return (
        tuple(resources),
        tuple([r._wsum for r in resources]),
        tuple([r._load for r in resources]),
        tuple([flow.rate for flow in flows]),
    )


def _check_memo_entry(entry: tuple, fresh: tuple) -> None:
    """Debug-mode guard: a memo entry the replay would serve matches the
    fill that just ran (``fresh``), bit for bit."""
    if fresh[0] != entry[0]:
        raise SimulationError(
            "fill memo entry disagrees with a fresh fill on the "
            "component's resources or their order"
        )
    if fresh[1] != entry[1]:
        return  # the replay would have refused this entry
    if fresh != entry:
        raise SimulationError(
            "fill memo entry disagrees with a fresh fill on the rates or "
            "the loads"
        )


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
    ``REPRO_SIM_SLOWPATH`` environment variable.  ``debug`` (or
    ``REPRO_SIM_DEBUG=1``) cross-checks the O(1) accumulators against
    from-scratch recomputation at every solve.
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
        self.config: SolverConfig
        self.configure(incremental, debug)
        self._fill_epoch = 0
        self._flow_seq = 0
        #: fill memo: shape ids in seq order -> (resources in discovery
        #: order, their _wsum, their load, flow rates); see _resolve
        self._memo: Dict[Tuple[int, ...], tuple] = {}
        #: (cap, ((resource, weight), ...)) -> shape id (from 1)
        self._shapes: Dict[tuple, int] = {}

    def configure(
        self,
        incremental: Optional[bool] = None,
        debug: Optional[bool] = None,
    ) -> SolverConfig:
        """(Re-)resolve solver modes; explicit arguments pin, ``None`` tracks
        the environment (see :mod:`repro.sim.config`).

        Safe to call between runs: switching *to* the incremental path with
        flows in flight rebuilds the component cache from the sharing graph,
        so the cache is exact regardless of which path built the state.
        """
        was_incremental = getattr(self, "incremental", None)
        self.config = resolve_solver_config(
            incremental, debug, base=getattr(self, "config", None)
        )
        self.incremental = self.config.incremental
        self._debug = self.config.debug
        if self.incremental and was_incremental is False:
            seeds = [f for r in self.resources for f in r.flows]
            if seeds:
                self._recarve(seeds)
        return self.config

    def refresh_config(self) -> SolverConfig:
        """Re-read unpinned solver modes from the environment."""
        return self.configure()

    @property
    def solver_mode(self) -> str:
        """The effective solver label: slowpath / incremental."""
        return self.config.mode

    # -- construction ---------------------------------------------------
    def add_resource(self, name: str, capacity: float) -> FlowResource:
        """Register a new resource (port, engine, or link)."""
        resource = FlowResource(self, name, capacity)
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
            resource.flows.add(flow)
            resource._wsum += weight
        if self.incremental:
            self._resolve(self._attach(flow))
        else:
            self._resolve(self._component([flow]))
        if self.engine.trace_enabled:
            self.engine.trace(f"flow+ {name} {nbytes:.0f}B rate={flow.rate:.1f}")
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

    def _attach(self, flow: Flow) -> List[Flow]:
        """Insert a new flow into the component cache; returns its component.

        Unions the (root) components of the flow's resources; if any of them
        is dirty the true component is re-carved by traversal, so the list
        handed to the solver is always exact.
        """
        roots: List[_Component] = []
        for resource in flow.usage:
            entry = resource.component
            if entry is not None:
                root = _find(entry)
                if root not in roots:
                    roots.append(root)
        if not roots:
            root = _Component()
        elif len(roots) == 1:
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
        root.flows[flow] = None
        flow.component = root
        for resource in flow.usage:
            resource.component = root
        if root.dirty:
            return self._recarve([flow])
        return list(root.flows)

    def _recarve(self, seeds: Iterable[Flow]) -> List[Flow]:
        """Rebuild exact components for the seeds' region of a dirty root.

        Traverses from each seed, carving a fresh clean component per
        connected region and detaching its members from their stale roots.
        Returns the union of the carved components (the exact set the
        reference path would resolve for these seeds).
        """
        group: List[Flow] = []
        seen: Set[Flow] = set()
        for seed in seeds:
            if seed.finished or seed in seen:
                continue
            component = _Component()
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
                group.append(flow)
                for resource in flow.usage:
                    if resource in visited_resources:
                        continue
                    visited_resources.add(resource)
                    resource.component = component
                    for other in resource.flows:
                        if other not in seen and not other.finished:
                            seen.add(other)
                            stack.append(other)
        return group

    def _resolve_component_of_resources(
        self, resources: Iterable[FlowResource]
    ) -> None:
        """Re-solve every flow (transitively) affected by these resources."""
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
            self._resolve(self._recarve(seeds))
        elif len(roots) == 1:
            self._resolve(list(roots[0].flows))
        else:
            group: List[Flow] = []
            for root in roots:
                group.extend(root.flows)
            self._resolve(group)

    def _resolve(self, flows: List[Flow]) -> None:
        """Advance, re-solve rates (progressive filling), reschedule.

        Only flows whose rate actually changed get a fresh deadline; an
        unchanged flow's previously scheduled completion stays valid, which
        keeps the event heap small when large components re-solve often.

        Flows are processed in creation order — a canonical order shared by
        the fast and reference paths, so event tie-breaking (and therefore
        the whole simulation) is independent of how the component was
        discovered and of interpreter memory layout.

        On the incremental path a component of at least
        ``_MEMO_MIN_FLOWS`` flows first consults the fill memo (see the
        module docstring); a hit replays the stored rates and loads
        instead of filling.
        """
        flows.sort(key=_flow_seq_key)
        now = self.engine.now
        old_rates: List[float] = []
        key = entry = None
        if self.incremental and len(flows) >= _MEMO_MIN_FLOWS:
            key = tuple(
                [flow.shape or self._intern_shape(flow) for flow in flows]
            )
            entry = self._memo.get(key)
        # A debug-mode hit fills as well, and checks the entry below.
        if (
            entry is None
            or self._debug
            or not self._replay(entry, flows, now, old_rates)
        ):
            # One pass: advance each flow at its old rate, fold each
            # resource's pre-change load into its busy integral
            # (resource.integrate, inlined for the hot path) and seed the
            # fill's scratch state.
            epoch = self._fill_epoch = self._fill_epoch + 1
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
            self._fill_scalar(flows, resources)
            if entry is None:
                if key is not None and len(self._memo) < _MEMO_MAX_ENTRIES:
                    self._memo[key] = _memo_entry(flows, resources)
            elif self._debug:
                _check_memo_entry(entry, _memo_entry(flows, resources))
        for flow, old in zip(flows, old_rates):
            rate = flow.rate
            if rate != old:
                # Tolerant comparison: re-solving a component whose
                # membership changed elsewhere can produce meaningless
                # last-bit jitter.
                tol = rate if rate > old else old
                if tol < 1.0:
                    tol = 1.0
                delta = rate - old
                if delta > 1e-12 * tol or -delta > 1e-12 * tol:
                    self._schedule_completion(flow)
                    continue
            if flow.remaining <= _EPS_BYTES:
                self._schedule_completion(flow)

    def _intern_shape(self, flow: Flow) -> int:
        """Set and return the flow's shape id, which interns all the fill
        reads of the flow: its cap and its (resource, weight) pairs in
        usage order."""
        shape = (flow.cap, tuple(flow.usage_items))
        flow.shape = self._shapes.setdefault(shape, len(self._shapes) + 1)
        return flow.shape

    def _replay(
        self,
        entry: tuple,
        flows: List[Flow],
        now: float,
        old_rates: List[float],
    ) -> bool:
        """Serve a memo hit: the same state as a fill, without filling.

        Returns False, having changed nothing the fill would not set
        itself, when a resource's weight sum differs from the stored one
        (float residue from a different add/remove history).
        """
        resources, wsums, loads, rates = entry
        for r, wsum, load in zip(resources, wsums, loads):
            if r._wsum != wsum:
                return False
            # Folded before the load changes; a fill after a refusal finds
            # these resources already folded to ``now``.
            if now > r._busy_last:
                r._busy_acc += r._load * (now - r._busy_last)
                r._busy_last = now
            r._load = load
        for flow, rate in zip(flows, rates):
            if now > flow.last_update:
                flow.remaining -= flow.rate * (now - flow.last_update)
            flow.last_update = now
            old_rates.append(flow.rate)
            flow.rate = rate
        return True

    def _fill_scalar(
        self, flows: List[Flow], resources: List[FlowResource]
    ) -> None:
        """Weighted max-min fair allocation for one component.

        Level-based progressive filling: all unfrozen flows share a common
        rate *level* that rises until either a flow's cap or a resource's
        capacity binds; bound flows freeze at the current level and the
        remainder keeps rising.  Per round this costs O(resources + active
        flows); the number of rounds is the number of distinct binding
        events, which is small in practice.

        Sets every flow's rate and every resource's load.  Expects the
        per-fill scratch (``_fill_slack``/``_fill_wsum``) seeded by
        :meth:`_resolve`.
        """
        active = list(flows)
        live = resources  # resources whose active weight sum is still > 0
        level = 0.0
        while active:
            # One pass: find the binding resource AND compact resources
            # whose weight sum drained (their flows all froze) out of the
            # next round's scans.  A drained resource can never re-arm —
            # frozen flows stay frozen — so dropping it is exact.
            alpha = math.inf
            next_live: List[FlowResource] = []
            for r in live:
                w = r._fill_wsum
                if w > _EPS_RATE:
                    next_live.append(r)
                    a = r._fill_slack / w
                    if a < alpha:
                        alpha = a
            live = next_live
            min_cap = math.inf
            for flow in active:
                if flow.cap < min_cap:
                    min_cap = flow.cap
            d = min_cap - level
            if d < alpha:
                alpha = d
            if alpha is math.inf:
                names = ", ".join(f.name for f in active[:4])
                raise SimulationError(
                    f"unconstrained flows in component: {names}"
                )
            if alpha < 0.0:
                alpha = 0.0
            level += alpha
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
        flow.generation += 1
        if flow.finished:
            return
        if flow.remaining <= _EPS_BYTES:
            self._finish(flow)
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
        if flow.remaining <= _EPS_BYTES:
            self._finish(flow)
        else:
            # Numerical slack; re-arm.
            self._schedule_completion(flow)

    def _finish(self, flow: Flow) -> None:
        flow.finished = True
        flow.remaining = 0.0
        resources = list(flow.usage.keys())
        now = self.engine.now
        rate = flow.rate
        for resource, weight in flow.usage_items:
            resource.integrate(now)
            resource.flows.discard(flow)
            resource._wsum -= weight
            if resource.flows:
                resource._load -= rate * weight
            else:
                # Clamp accumulator drift on an idle resource to exactly 0.
                resource._load = 0.0
                resource._wsum = 0.0
                resource.component = None
        if self.incremental and flow.component is not None:
            root = _find(flow.component)
            if root.flows is not None:
                root.flows.pop(flow, None)
            flow.component = None
            if len(resources) > 1:
                # The flow may have been an articulation point: its
                # component can split, so membership must be re-carved
                # before the next resolve.
                root.dirty = True
        self.bytes_completed += flow.nbytes
        self.flows_completed += 1
        if self.engine.trace_enabled:
            self.engine.trace(f"flow- {flow.name}")
        flow.event.trigger(self.engine.now)
        # Freed capacity speeds up neighbours: re-solve their component.
        self._resolve_component_of_resources(resources)
