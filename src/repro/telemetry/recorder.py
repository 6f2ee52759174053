"""Low-overhead structured event recorder for simulated collectives.

The paper's claims are *mechanistic* — which core injects, which receives,
which copies, how often the software message counters are polled, where
pipeline stalls accrue — and the recorder captures exactly that activity
as typed events:

* ``counter`` events — every software-counter poll (``wait_for``) and
  advance (``add``), with the counter name, value, and threshold/delta;
* ``fifo`` events — fetch-and-increment slot reservations (with the
  contention outcome: did the producer have to wait for space?) and
  occupancy samples for the Perfetto counter tracks;
* ``window`` events — shared-address mapping installs, cache hits and
  invalidations, with the TLB slot count;
* ``copy`` events — per-stage byte movement intervals, tagged with the
  moving rank and its paper role (injector, receiver, copier,
  protocol-core, reduce-core per color);
* ``stall`` events — intervals a core spent parked on a counter threshold
  (``waiting-on-counter``) or on FIFO space (``waiting-on-slot``);
* ``flow`` events — every flow-network transfer and fault window, with
  its name, interval and trace row.  A flow's row follows from the kinds
  of the resources it uses (:func:`flow_row`); fault windows have their
  own row.  Flows are trace material only: :meth:`TelemetryRecorder.
  rollups` never reads them, so the manifest gate does not see them.

Attachment and overhead discipline
----------------------------------

A recorder hangs off the engine (``engine.telemetry``); every hook site
reads that attribute once and skips recording when it is ``None``, so a
run with telemetry *disabled* executes the exact same float arithmetic as
the seed — bit-identical timings, asserted by the test suite.  Recording
itself is purely observational (no simulated events are scheduled), so an
*enabled* run also produces identical timings; telemetry can therefore be
turned on for any measurement without perturbing it.

Events are stored as flat tuples in per-kind lists — appends only, no
allocation beyond the tuple — and aggregated on demand by
:meth:`TelemetryRecorder.rollups` / :meth:`TelemetryRecorder.role_summary`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.sim.flownet import (
    KIND_DMA,
    KIND_LINKS,
    KIND_TREE_DOWN,
    KIND_TREE_UP,
)

#: canonical role names (the paper's core-specialization taxonomy)
ROLE_INJECTOR = "injector"
ROLE_RECEIVER = "receiver"
ROLE_COPIER = "copier"
ROLE_PROTOCOL = "protocol-core"
ROLE_MASTER = "master"
ROLE_DMA_WAIT = "dma-wait"


def reduce_core_role(color: int) -> str:
    """The role name of the allreduce worker core owning ``color``."""
    return f"reduce-core.c{color}"


#: flow rows: the Chrome-trace rows (tids) of the flows process
ROW_FAULT = 1
ROW_DMA = 2
ROW_NETWORK = 3
ROW_TREE = 4
ROW_COPY = 5

_TREE_KINDS = (KIND_TREE_UP, KIND_TREE_DOWN)


def flow_row(flow) -> int:
    """The trace row of ``flow``, from the kinds of its resources.

    A flow on a wire is a network transfer; one through a collective-
    network port rides the tree; one on the DMA engine alone is a DMA
    local copy; anything else is a core copy.
    """
    kinds = {resource.kind for resource in flow.usage}
    if KIND_LINKS in kinds:
        return ROW_NETWORK
    if not kinds.isdisjoint(_TREE_KINDS):
        return ROW_TREE
    if KIND_DMA in kinds:
        return ROW_DMA
    return ROW_COPY


class TelemetryRecorder:
    """Typed event sink for one simulated run (attach via
    :meth:`repro.hardware.machine.Machine.attach_telemetry`)."""

    __slots__ = (
        "counter_events", "fifo_events", "window_events", "copy_events",
        "stall_events", "working_set_events", "flow_events", "open_flows",
        "roles", "role_nodes",
    )

    def __init__(self) -> None:
        #: (ts, counter_name, kind, value, extra) — kind "poll" (extra =
        #: threshold) or "advance" (extra = delta)
        self.counter_events: List[Tuple[float, str, str, float, float]] = []
        #: (ts, fifo_name, node, kind, seq, flag) — kind "fai" (flag =
        #: 1.0 when the reservation hit a full FIFO) or "depth" (seq
        #: unused, flag = occupancy in elements)
        self.fifo_events: List[Tuple[float, str, Optional[int], str, int, float]] = []
        #: (ts, node, peer, kind, slots) — kind "map", "hit" or "unmap"
        self.window_events: List[Tuple[float, Optional[int], int, str, int]] = []
        #: (start, end, rank, node, role, stage, nbytes)
        self.copy_events: List[
            Tuple[float, float, int, int, str, str, int]
        ] = []
        #: (start, end, rank, node, kind) — rank is None for stalls inside
        #: shared structures whose caller identity is unknown
        self.stall_events: List[
            Tuple[float, float, Optional[int], Optional[int], str]
        ] = []
        #: (ts, working_set_bytes) — sampled at every regime install
        self.working_set_events: List[Tuple[float, int]] = []
        #: (start, end, name, row) of every finished flow and fault window
        self.flow_events: List[Tuple[float, float, str, int]] = []
        #: flow (or fault-window key) -> (start, name, row) while it runs
        self.open_flows: Dict[object, Tuple[float, str, int]] = {}
        #: rank -> paper role tag
        self.roles: Dict[int, str] = {}
        #: rank -> node index (recorded alongside the role)
        self.role_nodes: Dict[int, int] = {}

    # -- hook methods (hot paths; keep them append-only) ------------------
    def counter_poll(self, ts: float, name: str, value: float,
                     threshold: float) -> None:
        self.counter_events.append((ts, name, "poll", value, threshold))

    def counter_advance(self, ts: float, name: str, value: float,
                        delta: float) -> None:
        self.counter_events.append((ts, name, "advance", value, delta))

    def fifo_fai(self, ts: float, name: str, node: Optional[int], seq: int,
                 contended: bool) -> None:
        self.fifo_events.append(
            (ts, name, node, "fai", seq, 1.0 if contended else 0.0)
        )

    def fifo_depth(self, ts: float, name: str, node: Optional[int],
                   depth: float) -> None:
        self.fifo_events.append((ts, name, node, "depth", 0, depth))

    def window_event(self, ts: float, node: Optional[int], peer: int,
                     kind: str, slots: int) -> None:
        self.window_events.append((ts, node, peer, kind, slots))

    def copied(self, start: float, end: float, rank: int, node: int,
               role: str, stage: str, nbytes: int) -> None:
        self.copy_events.append((start, end, rank, node, role, stage, nbytes))

    def stall(self, start: float, end: float, rank: Optional[int],
              node: Optional[int], kind: str) -> None:
        if end > start:
            self.stall_events.append((start, end, rank, node, kind))

    def working_set(self, ts: float, nbytes: int) -> None:
        self.working_set_events.append((ts, nbytes))

    def flow_started(self, ts: float, flow) -> None:
        self.open_flows[flow] = (ts, flow.name, flow_row(flow))

    def fault_started(self, ts: float, key: object, label: str) -> None:
        self.open_flows[key] = (ts, label, ROW_FAULT)

    def flow_finished(self, ts: float, key: object) -> None:
        """Close the flow (or fault window) opened under ``key``."""
        opened = self.open_flows.pop(key, None)
        if opened is not None:
            start, name, row = opened
            self.flow_events.append((start, ts, name, row))

    def set_role(self, rank: int, node: int, role: str) -> None:
        self.roles[rank] = role
        self.role_nodes[rank] = node

    # -- aggregation -----------------------------------------------------
    def rollups(self) -> Dict[str, float]:
        """Flat metric rollups — the manifest's regression-gated payload.

        Every value is a deterministic function of the simulation, so two
        runs of the same spec produce identical rollups and a tolerance
        gate over them is meaningful.
        """
        out: Dict[str, float] = defaultdict(float)
        for _ts, _name, kind, _value, _extra in self.counter_events:
            out[f"counter_{kind}s"] += 1.0
        for _ts, _name, _node, kind, _seq, flag in self.fifo_events:
            if kind == "fai":
                out["fifo_fai"] += 1.0
                out["fifo_fai_contended"] += flag
        for _ts, _node, _peer, kind, _slots in self.window_events:
            if kind == "map":
                out["window_maps"] += 1.0
            elif kind == "hit":
                out["window_cache_hits"] += 1.0
            elif kind == "unmap":
                out["window_unmaps"] += 1.0
        for start, end, _rank, _node, role, _stage, nbytes in self.copy_events:
            out["bytes_copied"] += float(nbytes)
            out["copy_us"] += end - start
            out[f"bytes_copied.{role}"] += float(nbytes)
        for start, end, _rank, _node, kind in self.stall_events:
            out[f"stall_us.{kind}"] += end - start
        for role in self.roles.values():
            out[f"ranks.{role}"] += 1.0
        return dict(out)

    def role_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-role aggregation: rank count, bytes moved, busy/stall µs."""
        summary: Dict[str, Dict[str, float]] = {}

        def bucket(role: str) -> Dict[str, float]:
            if role not in summary:
                summary[role] = {
                    "ranks": 0.0, "bytes": 0.0, "copy_us": 0.0,
                    "stall_us": 0.0,
                }
            return summary[role]

        for role in self.roles.values():
            bucket(role)["ranks"] += 1.0
        for start, end, rank, _node, role, _stage, nbytes in self.copy_events:
            b = bucket(self.roles.get(rank, role))
            b["bytes"] += float(nbytes)
            b["copy_us"] += end - start
        for start, end, rank, _node, kind in self.stall_events:
            if rank is None:
                continue
            role = self.roles.get(rank)
            if role is not None:
                bucket(role)["stall_us"] += end - start
        return summary

    def stage_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-stage aggregation of the copy events (events, bytes, µs)."""
        summary: Dict[str, Dict[str, float]] = {}
        for start, end, _rank, _node, _role, stage, nbytes in self.copy_events:
            b = summary.setdefault(
                stage, {"events": 0.0, "bytes": 0.0, "us": 0.0}
            )
            b["events"] += 1.0
            b["bytes"] += float(nbytes)
            b["us"] += end - start
        return summary

    def clear(self) -> None:
        """Drop every recorded event (roles included) for reuse."""
        self.counter_events.clear()
        self.fifo_events.clear()
        self.window_events.clear()
        self.copy_events.clear()
        self.stall_events.clear()
        self.working_set_events.clear()
        self.flow_events.clear()
        self.open_flows.clear()
        self.roles.clear()
        self.role_nodes.clear()
