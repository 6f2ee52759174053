"""Chrome-trace export: the one writer of every trace document.

Every document is in the Chrome Trace Event Format (the JSON that
``chrome://tracing`` and Perfetto load).  Its processes:

* **pid 1 — flows**: one duration event per flow-network transfer and
  fault window, on the row its resources' kinds give
  (:func:`repro.telemetry.recorder.flow_row`): fault timeline, DMA local
  copies, network transfers, collective network, core copies / staging.
  Flows still open at export (a run stopped mid-flow) become
  zero-duration events tagged ``args.incomplete``, counted in
  ``otherData.incomplete_flows``;
* **pid 2 — core roles**: one row per MPI rank, labelled with the rank's
  paper role (injector / receiver / copier / protocol-core /
  reduce-core), built from the copy and stall intervals;
* **pid 3 — counters**: Perfetto counter tracks (``"C"`` events) for
  software-counter values, FIFO occupancy, and the working-set bytes
  against the L3;
* **pid 10 — runtime spans**: the serve / farm / parallel spans of
  :mod:`repro.telemetry.runtime`, one row per component (farm rows split
  per worker).

The simulator's pids come from a
:class:`~repro.telemetry.recorder.TelemetryRecorder` attached before the
run::

    machine = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
    recorder = machine.attach_telemetry()
    run_collective(machine, "bcast", "torus-shaddr", 1024 * 1024)
    write_trace(simulation_trace(recorder), "trace.json")

Simulator times are in microseconds, the format's native unit.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.telemetry.recorder import (
    ROW_COPY,
    ROW_DMA,
    ROW_FAULT,
    ROW_NETWORK,
    ROW_TREE,
)

FLOWS_PID = 1
ROLES_PID = 2
COUNTERS_PID = 3
RUNTIME_TRACE_PID = 10

_ROW_NAMES = {
    ROW_FAULT: "fault timeline",
    ROW_DMA: "DMA local copies",
    ROW_NETWORK: "network transfers",
    ROW_TREE: "collective network",
    ROW_COPY: "core copies / staging",
}


# -- event builders --------------------------------------------------------

def _process_name(pid: int, name: str) -> dict:
    return {"name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": name}}


def _thread_name(pid: int, tid: int, name: str) -> dict:
    return {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}}


def _duration(name: str, ts: float, dur: float, pid: int, tid: int,
              args: dict) -> dict:
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": pid,
            "tid": tid, "args": args}


def _counter(name: str, ts: float, args: dict) -> dict:
    return {"name": name, "ph": "C", "ts": ts, "pid": COUNTERS_PID,
            "args": args}


def _document(events: List[dict], **other) -> dict:
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other}


# -- the simulator's processes --------------------------------------------

def _flow_events(recorder) -> List[dict]:
    events = [
        _duration(name, start, max(end - start, 0.001), FLOWS_PID, row, {})
        for start, end, name, row in recorder.flow_events
    ]
    events.extend(
        _duration(name, start, 0.0, FLOWS_PID, row, {"incomplete": True})
        for start, name, row in recorder.open_flows.values()
    )
    return events


def _role_and_counter_events(recorder, l3_bytes: Optional[int]
                             ) -> List[dict]:
    events: List[dict] = []
    # Row labels: "n3.r13 copier" — node, rank, paper role.
    for rank, role in sorted(recorder.roles.items()):
        node = recorder.role_nodes.get(rank)
        label = f"n{node}.r{rank} {role}" if node is not None else f"r{rank} {role}"
        events.append(_thread_name(ROLES_PID, rank, label))
    for start, end, rank, _node, role, stage, nbytes in recorder.copy_events:
        events.append(_duration(
            stage, start, max(end - start, 0.001), ROLES_PID, rank,
            {"bytes": nbytes, "role": role},
        ))
    for start, end, rank, _node, kind in recorder.stall_events:
        if rank is None:
            continue
        events.append(_duration(
            f"stall:{kind}", start, max(end - start, 0.001), ROLES_PID,
            rank, {"kind": kind},
        ))
    for ts, name, kind, value, _extra in recorder.counter_events:
        if kind == "advance":
            events.append(_counter(f"counter {name}", ts, {"value": value}))
    for ts, name, _node, kind, _seq, flag in recorder.fifo_events:
        if kind == "depth":
            events.append(
                _counter(f"fifo {name} occupancy", ts, {"elements": flag})
            )
    for ts, nbytes in recorder.working_set_events:
        args = {"bytes": nbytes}
        if l3_bytes is not None:
            args["l3_bytes"] = l3_bytes
        events.append(_counter("working-set", ts, args))
    return events


def simulation_trace(recorder, *, flows_only: bool = False,
                     l3_bytes: Optional[int] = None) -> dict:
    """The document of one simulated run's recorder.

    ``flows_only`` keeps pid 1 alone; otherwise the role timelines and
    counter tracks follow, and ``l3_bytes`` annotates the working-set
    track with the cache capacity it competes against.
    """
    events = [
        _thread_name(FLOWS_PID, tid, label)
        for tid, label in _ROW_NAMES.items()
    ]
    events.append(_process_name(FLOWS_PID, "flows"))
    events.extend(_flow_events(recorder))
    if not flows_only:
        events.append(_process_name(ROLES_PID, "core roles"))
        events.append(_process_name(COUNTERS_PID, "counters"))
        events.extend(_role_and_counter_events(recorder, l3_bytes))
    return _document(events, incomplete_flows=len(recorder.open_flows))


# -- runtime spans -----------------------------------------------------------

def _span_row(span_dict: dict) -> str:
    attrs = span_dict.get("attrs") or {}
    worker = attrs.get("worker")
    if worker:
        return f"{span_dict.get('component', 'runtime')} {worker}"
    return str(span_dict.get("component", "runtime"))


def runtime_trace(spans: Sequence[dict]) -> dict:
    """The document of finished runtime spans.

    Span times are wall-clock seconds; they export as microseconds from
    the earliest start.  Span identity (``trace_id``/``span_id``/
    ``parent_id``) rides in each event's ``args``.
    """
    ordered = sorted(
        (dict(span_dict) for span_dict in spans if isinstance(span_dict, dict)),
        key=lambda span_dict: float(span_dict.get("start_s", 0.0)),
    )
    events = [_process_name(RUNTIME_TRACE_PID, "runtime spans")]
    rows: Dict[str, int] = {}
    for span_dict in ordered:
        row = _span_row(span_dict)
        if row not in rows:
            rows[row] = len(rows) + 1
            events.append(_thread_name(RUNTIME_TRACE_PID, rows[row], row))
    origin = min(
        (float(span_dict.get("start_s", 0.0)) for span_dict in ordered),
        default=0.0,
    )
    for span_dict in ordered:
        start = float(span_dict.get("start_s", 0.0))
        end = float(span_dict.get("end_s", start))
        args = {
            "trace_id": span_dict.get("trace_id"),
            "span_id": span_dict.get("span_id"),
            "parent_id": span_dict.get("parent_id"),
        }
        args.update(span_dict.get("attrs") or {})
        events.append(_duration(
            str(span_dict.get("name", "span")),
            round((start - origin) * 1e6, 3),
            round(max(end - start, 0.0) * 1e6, 3),
            RUNTIME_TRACE_PID, rows[_span_row(span_dict)], args,
        ))
    return _document(
        events,
        kind="runtime-spans",
        spans=len(ordered),
        traces=len({span_dict.get("trace_id") for span_dict in ordered}),
    )


def write_trace(document: dict, path: str) -> int:
    """Write ``document`` as JSON to ``path``; returns its number of
    duration (``"X"``) events."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return sum(1 for event in document["traceEvents"]
               if event.get("ph") == "X")
