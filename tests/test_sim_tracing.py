"""Tests for Chrome-trace export: flows recorded by the telemetry recorder,
rows derived from resource kinds, one writer for every document."""

import collections
import json

import pytest

from repro.bench import run_collective
from repro.collectives.registry import iter_algorithms
from repro.hardware import Machine, Mode
from repro.hardware.network import backend_class, known_backends
from repro.telemetry.recorder import TelemetryRecorder
from repro.telemetry.trace import simulation_trace, write_trace

#: the row each resource kind puts a flow on, strongest first: a wire
#: makes a network transfer, a collective-network port a tree flow, the
#: DMA alone a DMA local copy; anything else is a core copy
EXPECTED_ROWS = (
    ({"links"}, 3),
    ({"tree_up", "tree_down"}, 4),
    ({"dma"}, 2),
)
CORE_COPY_ROW = 5

#: a small size per family (bytes, elements or block bytes)
SIZES = {"bcast": 16 * 1024, "allreduce": 2048, "reduce": 2048,
         "allgather": 1024, "alltoall": 512, "gather": 1024,
         "scatter": 1024, "barrier": 0}


def traced_run(algorithm="torus-shaddr", nbytes=64 * 1024):
    machine = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
    recorder = machine.attach_telemetry()
    run_collective(machine, "bcast", algorithm, nbytes)
    return machine, recorder


def flow_events(document):
    return [e for e in document["traceEvents"]
            if e.get("pid") == 1 and e.get("ph") == "X"]


class TestChromeTrace:
    def test_flow_events_paired(self):
        _machine, recorder = traced_run()
        events = flow_events(simulation_trace(recorder))
        assert events, "expected at least one flow duration event"
        assert len(events) == len(recorder.flow_events)
        for event in events:
            assert event["dur"] > 0
            assert event["ts"] >= 0
            assert "incomplete" not in event["args"]

    def test_document_structure(self):
        _machine, recorder = traced_run()
        doc = simulation_trace(recorder)
        assert "traceEvents" in doc
        names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M"
        ]
        assert "network transfers" in names
        assert "core copies / staging" in names
        assert "other flows" not in names

    def test_rows_cover_expected_classes(self):
        _machine, recorder = traced_run()
        rows = {e["tid"] for e in flow_events(simulation_trace(recorder))}
        # A shared-address broadcast produces network transfers and core
        # copies at minimum.
        assert 3 in rows
        assert 5 in rows

    def test_write_roundtrip(self, tmp_path):
        _machine, recorder = traced_run()
        path = tmp_path / "trace.json"
        count = write_trace(simulation_trace(recorder), str(path))
        assert count > 0
        loaded = json.loads(path.read_text())
        durations = [e for e in loaded["traceEvents"] if e.get("ph") == "X"]
        assert len(durations) == count

    def test_untraced_engine_yields_empty(self):
        machine = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        assert machine.engine.telemetry is None
        run_collective(machine, "bcast", "torus-shaddr", 1024)
        # Nothing was recorded while no recorder was attached.
        recorder = machine.attach_telemetry()
        assert flow_events(simulation_trace(recorder)) == []

    def test_flows_only_keeps_pid_1(self):
        _machine, recorder = traced_run("tree-shaddr")
        full = simulation_trace(recorder)
        flows = simulation_trace(recorder, flows_only=True)
        assert {e["pid"] for e in flows["traceEvents"]} == {1}
        assert {e["pid"] for e in full["traceEvents"]} == {1, 2, 3}
        assert flow_events(flows) == flow_events(full)


class TestIncompleteFlows:
    """A trace stopped mid-flow must not silently drop the open flows."""

    def test_unmatched_flow_exported_not_dropped(self):
        recorder = TelemetryRecorder()
        first, second = object(), object()
        recorder.fault_started(1.0, first, "fault.a")
        recorder.flow_finished(2.0, first)
        recorder.fault_started(3.0, second, "fault.b")  # never closes
        events = flow_events(simulation_trace(recorder))
        assert len(events) == 2
        by_name = {e["name"]: e for e in events}
        assert by_name["fault.b"]["dur"] == 0.0
        assert by_name["fault.b"]["args"]["incomplete"] is True
        assert "incomplete" not in by_name["fault.a"]["args"]

    def test_incomplete_count_surfaces_in_document(self):
        machine = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        recorder = machine.attach_telemetry()
        node = machine.nodes[0]

        def copier():
            yield node.core_copy_flow(64 * 1024, name="long-copy")

        machine.spawn(copier(), name="copier")
        machine.engine.run(until=1.0)  # stop mid-flow
        doc = simulation_trace(recorder)
        open_flows = [e for e in flow_events(doc) if e["args"].get("incomplete")]
        assert [e["name"] for e in open_flows] == ["n0.long-copy"]
        assert open_flows[0]["dur"] == 0.0
        assert open_flows[0]["tid"] == CORE_COPY_ROW
        assert doc["otherData"]["incomplete_flows"] == 1
        # Running on closes the flow.
        machine.engine.run()
        doc = simulation_trace(recorder)
        assert doc["otherData"]["incomplete_flows"] == 0
        assert [e["name"] for e in flow_events(doc)] == ["n0.long-copy"]

    def test_complete_trace_reports_zero(self):
        _machine, recorder = traced_run()
        doc = simulation_trace(recorder)
        assert doc["otherData"]["incomplete_flows"] == 0


class _KindRecorder(TelemetryRecorder):
    """Also remembers the resource kinds of every flow it sees start."""

    __slots__ = ("started",)

    def __init__(self):
        super().__init__()
        self.started = []

    def flow_started(self, ts, flow):
        super().flow_started(ts, flow)
        kinds = frozenset(resource.kind for resource in flow.usage)
        self.started.append((flow.name, ts, kinds))


def _expected_row(kinds):
    for row_kinds, row in EXPECTED_ROWS:
        if kinds & row_kinds:
            return row
    return CORE_COPY_ROW


def _protocol_backends():
    for info in iter_algorithms():
        for backend in known_backends():
            if info.network in backend_class(backend).wires:
                yield pytest.param(
                    info, backend, id=f"{info.name}-{backend}",
                )


class TestRowsFollowResourceKinds:
    """Every protocol, on every backend whose wire it rides, at 2x2x2 in
    its widest mode: each flow sits on the row its resources' kinds give,
    and no resource a machine or a protocol creates is unclassified."""

    @pytest.mark.parametrize("info,backend", list(_protocol_backends()))
    def test_flow_rows_and_resource_kinds(self, info, backend):
        machine = Machine(torus_dims=(2, 2, 2), mode=Mode(max(info.modes)),
                          network=backend)
        recorder = _KindRecorder()
        machine.engine.telemetry = recorder
        run_collective(machine, info.family, info.name, SIZES[info.family])
        assert not [r.name for r in machine.flownet.resources
                    if r.kind == "other"]
        expected = collections.Counter(
            (name, ts, _expected_row(kinds))
            for name, ts, kinds in recorder.started
        )
        exported = collections.Counter(
            (e["name"], e["ts"], e["tid"])
            for e in flow_events(simulation_trace(recorder))
        )
        assert exported == expected


class TestTelemetryEvents:
    def recorded_run(self):
        return traced_run("tree-shaddr")

    def test_role_rows_and_counter_tracks(self):
        machine, recorder = self.recorded_run()
        events = simulation_trace(
            recorder, l3_bytes=machine.params.l3_bytes,
        )["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e.get("name") == "thread_name" and e["pid"] == 2}
        assert any("injector" in n for n in names)
        assert any("copier" in n for n in names)
        counters = [e for e in events if e["ph"] == "C"]
        assert counters, "expected Perfetto counter-track events"
        ws = [e for e in counters if e["name"] == "working-set"]
        assert ws and all(
            e["args"]["l3_bytes"] == machine.params.l3_bytes for e in ws
        )

    def test_document_gains_role_and_counter_processes(self):
        machine, recorder = self.recorded_run()
        doc = simulation_trace(recorder, l3_bytes=machine.params.l3_bytes)
        process_names = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert {"flows", "core roles", "counters"} <= process_names

    def test_write_roundtrip_with_telemetry(self, tmp_path):
        machine, recorder = self.recorded_run()
        path = tmp_path / "trace.json"
        count = write_trace(
            simulation_trace(recorder, l3_bytes=machine.params.l3_bytes),
            str(path),
        )
        loaded = json.loads(path.read_text())
        durations = [e for e in loaded["traceEvents"] if e.get("ph") == "X"]
        assert len(durations) == count
        assert {e["pid"] for e in loaded["traceEvents"]} >= {1, 2, 3}
