"""Tests for Chrome-trace export."""

import json

import pytest

from repro.bench import run_collective
from repro.hardware import Machine, Mode
from repro.sim import Engine
from repro.sim.tracing import (
    _row_for,
    chrome_trace,
    collect_flow_events,
    incomplete_flow_count,
    telemetry_events,
    write_chrome_trace,
)


def traced_run():
    engine = Engine(trace=True)
    machine = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD, engine=engine)
    run_collective(machine, "bcast", "torus-shaddr", 64 * 1024)
    return engine


class TestChromeTrace:
    def test_flow_events_paired(self):
        engine = traced_run()
        events = collect_flow_events(engine)
        assert events, "expected at least one flow duration event"
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] > 0
            assert event["ts"] >= 0

    def test_document_structure(self):
        engine = traced_run()
        doc = chrome_trace(engine)
        assert "traceEvents" in doc
        names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M"
        ]
        assert "network transfers" in names
        assert "core copies / staging" in names

    def test_rows_cover_expected_classes(self):
        engine = traced_run()
        events = collect_flow_events(engine)
        rows = {e["tid"] for e in events}
        # A shared-address broadcast produces network transfers and core
        # copies at minimum.
        assert 3 in rows
        assert 5 in rows

    def test_write_roundtrip(self, tmp_path):
        engine = traced_run()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(engine, str(path))
        assert count > 0
        loaded = json.loads(path.read_text())
        durations = [e for e in loaded["traceEvents"] if e.get("ph") == "X"]
        assert len(durations) == count

    def test_untraced_engine_yields_empty(self):
        engine = Engine()  # tracing off
        machine = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD, engine=engine)
        run_collective(machine, "bcast", "torus-shaddr", 1024)
        assert collect_flow_events(engine) == []


class TestIncompleteFlows:
    """A trace truncated mid-flow must not silently drop the open flows."""

    def truncated_engine(self):
        engine = Engine(trace=True)
        engine.trace_log.append((1.0, "flow+ s.c0 start"))
        engine.trace_log.append((2.0, "flow- s.c0 done"))
        engine.trace_log.append((3.0, "flow+ s.c1 start"))  # never closes
        return engine

    def test_unmatched_flow_exported_not_dropped(self):
        events = collect_flow_events(self.truncated_engine())
        assert len(events) == 2
        by_name = {e["name"]: e for e in events}
        assert by_name["s.c1"]["dur"] == 0.0
        assert by_name["s.c1"]["args"]["incomplete"] is True
        assert "incomplete" not in by_name["s.c0"]["args"]

    def test_incomplete_count_surfaces_in_document(self):
        engine = self.truncated_engine()
        assert incomplete_flow_count(collect_flow_events(engine)) == 1
        doc = chrome_trace(engine)
        assert doc["otherData"]["incomplete_flows"] == 1

    def test_complete_trace_reports_zero(self):
        engine = Engine(trace=True)
        machine = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD,
                          engine=engine)
        run_collective(machine, "bcast", "torus-shaddr", 64 * 1024)
        doc = chrome_trace(engine)
        assert doc["otherData"]["incomplete_flows"] == 0


class TestRegistryRowMetadata:
    """Flow-row assignment driven by registry ``trace_rows`` capability
    metadata, with the old substring heuristics as the fallback."""

    def test_registry_declared_rows_win(self):
        # allreduce-torus-current declares ("gather.", "dma") — without the
        # registry metadata the heuristics would classify it as row 2 via
        # the "gather" substring too, but "lred." flows would land in
        # row 6 (no heuristic matches them).
        assert _row_for("gather.c0") == 2
        assert _row_for("lred.c1.n3") == 5
        assert _row_for("lbcast.l2") == 5
        assert _row_for("bfifo.n1") == 5

    def test_heuristic_fallback_still_classifies(self):
        assert _row_for("fault.link") == 1
        assert _row_for("tree.up") == 4
        assert _row_for("entirely-novel-flow") == 6

    def test_registered_algorithms_declare_valid_rows(self):
        from repro.collectives.registry import iter_algorithms

        valid = {"fault", "dma", "network", "tree", "copy", "other"}
        declaring = 0
        for info in iter_algorithms():
            for substring, row_class in info.trace_rows:
                assert row_class in valid, (info.name, substring, row_class)
                declaring += 1
        assert declaring > 0


class TestTelemetryEvents:
    def recorded_engine(self):
        engine = Engine(trace=True)
        machine = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD,
                          engine=engine)
        recorder = machine.attach_telemetry()
        run_collective(machine, "bcast", "tree-shaddr", 64 * 1024)
        return engine, machine, recorder

    def test_role_rows_and_counter_tracks(self):
        _, machine, recorder = self.recorded_engine()
        events = telemetry_events(recorder,
                                  l3_bytes=machine.params.l3_bytes)
        names = {e["args"]["name"] for e in events
                 if e.get("name") == "thread_name"}
        assert any("injector" in n for n in names)
        assert any("copier" in n for n in names)
        counters = [e for e in events if e["ph"] == "C"]
        assert counters, "expected Perfetto counter-track events"
        ws = [e for e in counters if e["name"] == "working-set"]
        assert ws and all(
            e["args"]["l3_bytes"] == machine.params.l3_bytes for e in ws
        )

    def test_document_gains_role_and_counter_processes(self):
        engine, machine, recorder = self.recorded_engine()
        doc = chrome_trace(engine, telemetry=recorder,
                           l3_bytes=machine.params.l3_bytes)
        process_names = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert {"flows", "core roles", "counters"} <= process_names

    def test_write_roundtrip_with_telemetry(self, tmp_path):
        engine, machine, recorder = self.recorded_engine()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(engine, str(path), telemetry=recorder,
                                   l3_bytes=machine.params.l3_bytes)
        loaded = json.loads(path.read_text())
        durations = [e for e in loaded["traceEvents"] if e.get("ph") == "X"]
        assert len(durations) == count
        assert {e["pid"] for e in loaded["traceEvents"]} >= {1, 2, 3}
