"""Chrome-trace export of a simulation run.

Converts an engine's trace log into the Chrome Trace Event Format (the
JSON consumed by ``chrome://tracing`` / Perfetto), with one duration event
per flow, grouped into rows by resource class.  Enable tracing when
constructing the machine's engine and dump after a run::

    engine = Engine(trace=True)
    machine = Machine(torus_dims=(2, 2, 2), engine=engine)
    run_collective(machine, "bcast", "torus-shaddr", 1024 * 1024)
    write_chrome_trace(engine, "trace.json")

When a :class:`~repro.telemetry.recorder.TelemetryRecorder` is passed
alongside the engine, the document additionally carries

* **per-core role timelines** (pid 2, one row per MPI rank, labelled with
  the rank's paper role — injector / receiver / copier / protocol-core /
  reduce-core) built from the recorder's copy and stall intervals;
* **Perfetto counter tracks** (pid 3, ``"C"`` events) for software-counter
  values, FIFO occupancy, and the working-set bytes against the 8 MB L3.

Flow rows (pid 1) are assigned by registry capability metadata when an
algorithm declares ``trace_rows`` (see
:class:`repro.collectives.registry.AlgorithmInfo`); the historical
substring heuristics remain as the fallback for unregistered flow names.

``flow+`` lines with no matching ``flow-`` by the end of the log (a
truncated or mid-run trace) are *not* dropped: they export as
zero-duration events tagged ``args.incomplete`` and are counted in the
document's ``otherData.incomplete_flows``.

Times are exported in microseconds (the native trace-format unit, which is
also the simulator's).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.sim.engine import Engine

#: row (tid) per flow class name declared in registry ``trace_rows``
_ROW_CLASS_TIDS = {
    "fault": 1,
    "dma": 2,
    "network": 3,
    "tree": 4,
    "copy": 5,
    "other": 6,
}

_ROW_NAMES = {
    1: "fault timeline",
    2: "DMA local copies",
    3: "network transfers",
    4: "collective network",
    5: "core copies / staging",
    6: "other flows",
}

#: lazily built (substring, tid) pairs from registry capability metadata
_registry_rows: Optional[List[Tuple[str, int]]] = None


def _registry_row_map() -> List[Tuple[str, int]]:
    """Flow-name substrings declared by registered algorithms.

    Built once per process from every registered algorithm's
    ``trace_rows`` metadata; importing the registry pulls in the family
    modules, so this runs at export time, never inside a simulation.
    """
    global _registry_rows
    if _registry_rows is None:
        rows: List[Tuple[str, int]] = []
        try:
            from repro.collectives.registry import iter_algorithms
            for info in iter_algorithms():
                for substring, row_class in info.trace_rows:
                    tid = _ROW_CLASS_TIDS.get(row_class)
                    if tid is not None:
                        rows.append((substring, tid))
        except Exception:
            # Row assignment must never break trace export; the substring
            # fallback below covers every flow name.
            rows = []
        _registry_rows = rows
    return _registry_rows


def _row_for(flow_name: str) -> int:
    """Stable row (tid) assignment for one flow name.

    Registry-declared substrings win; the historical substring heuristics
    keep classifying names no algorithm has claimed.
    """
    for substring, tid in _registry_row_map():
        if substring in flow_name:
            return tid
    if flow_name.startswith("fault."):
        return 1
    if ".dput" in flow_name or "dma" in flow_name or "gather" in flow_name:
        return 2
    if "lb." in flow_name or "ringsend" in flow_name or flow_name.startswith(
        ("s.", "g.", "ag.")
    ):
        return 3
    if "tree" in flow_name:
        return 4
    if "shaddr" in flow_name or "fifo" in flow_name or "copy" in flow_name:
        return 5
    return 6


def collect_flow_events(engine: Engine) -> List[dict]:
    """Pair ``flow+``/``flow-`` trace lines into duration events.

    Unmatched ``flow+`` entries (trace truncated mid-flow) become
    zero-duration events tagged ``args["incomplete"]`` instead of being
    silently dropped; :func:`incomplete_flow_count` totals them.
    """
    open_flows: Dict[str, List[float]] = {}
    events: List[dict] = []
    for timestamp, message in engine.trace_log:
        if message.startswith("flow+ "):
            name = message.split()[1]
            open_flows.setdefault(name, []).append(timestamp)
        elif message.startswith("flow- "):
            name = message.split()[1]
            starts = open_flows.get(name)
            if starts:
                start = starts.pop(0)
                events.append(
                    {
                        "name": name,
                        "ph": "X",
                        "ts": start,
                        "dur": max(timestamp - start, 0.001),
                        "pid": 1,
                        "tid": _row_for(name),
                        "args": {},
                    }
                )
    for name, starts in open_flows.items():
        for start in starts:
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": start,
                    "dur": 0.0,
                    "pid": 1,
                    "tid": _row_for(name),
                    "args": {"incomplete": True},
                }
            )
    return events


def incomplete_flow_count(events: List[dict]) -> int:
    """Number of truncated (never-completed) flows in an event list."""
    return sum(1 for e in events if e.get("args", {}).get("incomplete"))


def telemetry_events(telemetry, l3_bytes: Optional[int] = None) -> List[dict]:
    """Trace events for a :class:`TelemetryRecorder`'s observations.

    Produces the role timelines (pid 2, one row per rank) from copy/stall
    intervals, plus Perfetto counter tracks (pid 3, ``"C"`` events) for
    counter values, FIFO occupancy, and working-set bytes (annotated with
    ``l3_bytes`` — BG/P's 8 MB — when provided).
    """
    events: List[dict] = []
    # Row labels: "n3.r13 copier" — node, rank, paper role.
    for rank, role in sorted(telemetry.roles.items()):
        node = telemetry.role_nodes.get(rank)
        label = f"n{node}.r{rank} {role}" if node is not None else f"r{rank} {role}"
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 2,
                "tid": rank,
                "args": {"name": label},
            }
        )
    for start, end, rank, _node, role, stage, nbytes in telemetry.copy_events:
        events.append(
            {
                "name": stage,
                "ph": "X",
                "ts": start,
                "dur": max(end - start, 0.001),
                "pid": 2,
                "tid": rank,
                "args": {"bytes": nbytes, "role": role},
            }
        )
    for start, end, rank, node, kind in telemetry.stall_events:
        if rank is None:
            continue
        events.append(
            {
                "name": f"stall:{kind}",
                "ph": "X",
                "ts": start,
                "dur": max(end - start, 0.001),
                "pid": 2,
                "tid": rank,
                "args": {"kind": kind},
            }
        )
    # Counter tracks ("C" events): the value series of each software
    # counter, FIFO occupancy, and working-set vs the L3.
    for ts, name, kind, value, _extra in telemetry.counter_events:
        if kind == "advance":
            events.append(
                {
                    "name": f"counter {name}",
                    "ph": "C",
                    "ts": ts,
                    "pid": 3,
                    "args": {"value": value},
                }
            )
    for ts, name, _node, kind, _seq, flag in telemetry.fifo_events:
        if kind == "depth":
            events.append(
                {
                    "name": f"fifo {name} occupancy",
                    "ph": "C",
                    "ts": ts,
                    "pid": 3,
                    "args": {"elements": flag},
                }
            )
    for ts, nbytes in telemetry.working_set_events:
        args = {"bytes": nbytes}
        if l3_bytes is not None:
            args["l3_bytes"] = l3_bytes
        events.append(
            {"name": "working-set", "ph": "C", "ts": ts, "pid": 3,
             "args": args}
        )
    return events


def chrome_trace(engine: Engine, telemetry=None,
                 l3_bytes: Optional[int] = None) -> dict:
    """Build the full Chrome Trace Format document.

    ``telemetry`` (a :class:`TelemetryRecorder`) adds the role-timeline
    rows and counter tracks; ``l3_bytes`` annotates the working-set track
    with the cache capacity it competes against.
    """
    events = collect_flow_events(engine)
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": label},
        }
        for tid, label in _ROW_NAMES.items()
    ]
    metadata.append(
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": "flows"}}
    )
    extra: List[dict] = []
    if telemetry is not None:
        extra = telemetry_events(telemetry, l3_bytes=l3_bytes)
        metadata.append(
            {"name": "process_name", "ph": "M", "pid": 2,
             "args": {"name": "core roles"}}
        )
        metadata.append(
            {"name": "process_name", "ph": "M", "pid": 3,
             "args": {"name": "counters"}}
        )
    return {
        "traceEvents": metadata + events + extra,
        "displayTimeUnit": "ms",
        "otherData": {"incomplete_flows": incomplete_flow_count(events)},
    }


def write_chrome_trace(engine: Engine, path: str, telemetry=None,
                       l3_bytes: Optional[int] = None) -> int:
    """Write the trace JSON; returns the number of duration events."""
    document = chrome_trace(engine, telemetry=telemetry, l3_bytes=l3_bytes)
    with open(path, "w") as handle:
        json.dump(document, handle)
    return sum(1 for e in document["traceEvents"] if e.get("ph") == "X")
