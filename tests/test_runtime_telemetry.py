"""The runtime observability plane (``repro.telemetry.runtime``).

The invariants under test mirror docs/observability.md ("Runtime
observability"):

* **console compatibility** — the default console format reproduces the
  historical stderr shapes (``[prefix] message`` / bare messages);
* **metrics discipline** — counters are monotonic, histograms use the
  fixed bucket bounds, the Prometheus exposition round-trips through
  :func:`parse_prometheus`, and a name cannot change kind;
* **span model** — a child span shares its parent's trace id, carries a
  fresh span id, and points ``parent_id`` at the parent span;
* **flight recorder** — every structured event lands in the ring, and
  dumps only happen when a destination is configured;
* **stats thread-safety** — concurrent ``record_*`` calls on
  :class:`ServiceStats` never lose counts, and the live histograms
  agree with the ring totals.
"""

import json
import threading
import urllib.request

import pytest

from repro.serve.service import PredictionService, ServiceStats
from repro.telemetry.runtime import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    SpanStore,
    dump_flight_record,
    flight_snapshot,
    mint_trace,
    parse_prometheus,
    record_span,
    runtime_log,
    serve_metrics_http,
    span,
)
from repro.telemetry.trace import RUNTIME_TRACE_PID, runtime_trace, write_trace
from repro.util.config import setting

ENV_RUNTIME_LOG = "REPRO_RUNTIME_LOG"
ENV_LOG_LEVEL = "REPRO_LOG_LEVEL"
ENV_FLIGHT_DIR = "REPRO_FLIGHT_DIR"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_RUNTIME_LOG, raising=False)
    monkeypatch.delenv(ENV_LOG_LEVEL, raising=False)
    monkeypatch.delenv(ENV_FLIGHT_DIR, raising=False)


# -- structured logging ----------------------------------------------------

class TestRuntimeLogger:
    def test_console_prefix_shape(self, capsys):
        runtime_log("farm.server", prefix="farm").info(
            "lease", "leased chunk 3",
        )
        assert capsys.readouterr().err == "[farm] leased chunk 3\n"

    def test_console_bare_message(self, capsys):
        runtime_log("serve.cache").warning(
            "cache_stale", "serve cache: skipping stale entry",
        )
        assert capsys.readouterr().err == (
            "serve cache: skipping stale entry\n"
        )

    def test_console_structured_event_renders_fields(self, capsys):
        runtime_log("farm.server", prefix="farm").info(
            "lease_expired", worker="w-1", chunk=4,
        )
        assert capsys.readouterr().err == (
            "[farm] lease_expired worker=w-1 chunk=4\n"
        )

    def test_json_mode_emits_parseable_records(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_RUNTIME_LOG, "json")
        assert setting(ENV_RUNTIME_LOG) == "json"
        runtime_log("farm.worker", prefix="w-9").info(
            "chunk_done", "w-9: chunk 2 done", chunk=2, points=8,
        )
        record = json.loads(capsys.readouterr().err)
        assert record["component"] == "farm.worker"
        assert record["level"] == "info"
        assert record["event"] == "chunk_done"
        assert record["msg"] == "w-9: chunk 2 done"
        assert record["chunk"] == 2 and record["points"] == 8
        assert isinstance(record["ts"], float)

    def test_global_level_filters(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_LOG_LEVEL, "warning")
        logger = runtime_log("serve")
        logger.info("below", "not shown")
        logger.warning("above", "shown")
        assert capsys.readouterr().err == "shown\n"

    def test_logger_level_overrides_global(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_LOG_LEVEL, "debug")
        quiet = runtime_log("farm.server", prefix="farm", level="warning")
        quiet.info("lease", "progress line")
        quiet.warning("bad", "warning line")
        assert capsys.readouterr().err == "[farm] warning line\n"

    def test_filtered_events_still_reach_flight_ring(self, monkeypatch):
        monkeypatch.setenv(ENV_LOG_LEVEL, "error")
        logger = runtime_log("test.flight.filtered")
        logger.debug("quiet_event", detail=1)
        events = flight_snapshot("test.flight.filtered")
        assert [event["event"] for event in events] == ["quiet_event"]


# -- metrics registry ------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_inc_and_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits")
        counter.inc()
        counter.inc(2, tier="memo")
        counter.inc(tier="memo")
        assert counter.value() == 1
        assert counter.value(tier="memo") == 3

    def test_counter_refuses_decrease(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_histogram_buckets_cumulative_in_exposition(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", "latency")
        for value in (0.0005, 0.002, 0.002, 120.0):
            histogram.observe(value)
        assert histogram.summary() == {
            "count": 4, "sum": pytest.approx(120.0045)
        }
        parsed = parse_prometheus(registry.dump_metrics())
        buckets = parsed["lat_seconds_bucket"]
        assert buckets["le=0.001"] == 1
        assert buckets["le=0.0025"] == 3
        assert buckets["le=60"] == 3  # cumulative, 120s overflows
        assert buckets["le=+Inf"] == 4
        assert parsed["lat_seconds_count"][""] == 4

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(5, op="predict")
        registry.gauge("b").set(7)
        registry.histogram("h_seconds").observe(0.3)
        snap = registry.snapshot()
        assert snap["counters"]["a_total"] == {"op=predict": 5.0}
        assert snap["gauges"]["b"] == {"": 7.0}
        series = snap["histograms"]["h_seconds"][""]
        assert series["count"] == 1
        assert series["sum"] == pytest.approx(0.3)
        assert series["buckets"]["+Inf"] == 0
        assert len(series["buckets"]) == len(DEFAULT_BUCKETS) + 1

    def test_exposition_round_trips_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("answers_total", "answers by tier").inc(
            4, tier="memo",
        )
        registry.counter("answers_total").inc(1, tier="cold")
        registry.gauge("memo_entries", "entries in the memo LRU").set(3)
        text = registry.dump_metrics()
        assert "# TYPE answers_total counter" in text
        assert "# HELP answers_total answers by tier" in text
        parsed = parse_prometheus(text)
        assert parsed["answers_total"] == {"tier=memo": 4.0, "tier=cold": 1.0}
        assert parsed["memo_entries"][""] == 3.0

    def test_metrics_http_endpoint(self):
        registry = MetricsRegistry()
        registry.counter("scraped_total").inc(9)
        httpd = serve_metrics_http("127.0.0.1", 0, registry.dump_metrics)
        try:
            port = httpd.server_address[1]
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics") as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain"
                )
                body = response.read().decode()
        finally:
            httpd.shutdown()
            httpd.server_close()
        assert parse_prometheus(body)["scraped_total"][""] == 9.0


# -- trace spans -----------------------------------------------------------

class TestSpans:
    def test_child_chains_under_parent(self):
        store = SpanStore()
        with span("outer", "serve", store=store) as outer:
            with span("inner", "parallel", parent=outer.ctx,
                      store=store) as inner:
                inner.set(points=3)
        inner_span, outer_span = sorted(
            store.snapshot(), key=lambda item: item["name"],
        )
        assert outer_span["parent_id"] is None
        assert inner_span["trace_id"] == outer_span["trace_id"]
        assert inner_span["parent_id"] == outer_span["span_id"]
        assert inner_span["span_id"] != outer_span["span_id"]
        assert inner_span["attrs"] == {"points": 3}
        assert outer_span["end_s"] >= outer_span["start_s"]

    def test_record_span_requires_parent(self):
        store = SpanStore()
        assert record_span("w", "farm", 0.0, 1.0, parent=None,
                           store=store) is None
        recorded = record_span(
            "w", "farm.worker", 1.0, 2.0, parent=mint_trace(),
            span_id="abcd", store=store, worker="w-1",
        )
        assert recorded["span_id"] == "abcd"
        assert recorded["attrs"] == {"worker": "w-1"}
        assert len(store) == 1

    def test_store_is_bounded(self):
        store = SpanStore(max_spans=4)
        for index in range(10):
            store.record({"span_id": str(index)})
        assert [item["span_id"] for item in store.snapshot()] == (
            ["6", "7", "8", "9"]
        )

    def test_trace_document_shape(self):
        parent = mint_trace()
        store = SpanStore()
        with span("serve.sweep", "serve", parent=parent, store=store) as sp:
            record_span(
                "farm.chunk.0", "farm.worker", 0.0, 0.5, parent=sp.ctx,
                store=store, worker="w-1",
            )
        document = runtime_trace(store.snapshot())
        events = document["traceEvents"]
        spans_x = [event for event in events if event["ph"] == "X"]
        meta = [event for event in events if event["ph"] == "M"]
        assert all(event["pid"] == RUNTIME_TRACE_PID for event in events)
        assert {event["args"]["name"] for event in meta} >= {
            "runtime spans", "serve", "farm.worker w-1",
        }
        by_name = {event["name"]: event for event in spans_x}
        sweep = by_name["serve.sweep"]
        chunk = by_name["farm.chunk.0"]
        assert chunk["args"]["trace_id"] == sweep["args"]["trace_id"]
        assert chunk["args"]["parent_id"] == sweep["args"]["span_id"]
        assert chunk["args"]["worker"] == "w-1"
        assert document["otherData"]["kind"] == "runtime-spans"

    def test_write_runtime_trace_loads_back(self, tmp_path):
        store = SpanStore()
        with span("a", "serve", store=store):
            pass
        out = tmp_path / "runtime.json"
        count = write_trace(runtime_trace(store.snapshot()), str(out))
        assert count == 1
        document = json.loads(out.read_text())
        assert document["displayTimeUnit"] == "ms"


# -- flight recorder -------------------------------------------------------

class TestFlightRecorder:
    def test_dump_writes_events_and_trailer(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_FLIGHT_DIR, str(tmp_path))
        logger = runtime_log("test.flight.dump")
        logger.error("boom", "it broke", chunk=7)
        path = dump_flight_record("unit-test", component="test.flight.dump")
        assert path is not None and path.startswith(str(tmp_path))
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert lines[-1]["kind"] == "flight"
        assert lines[-1]["reason"] == "unit-test"
        assert any(line.get("event") == "boom" for line in lines[:-1])

    def test_dump_is_noop_without_destination(self):
        runtime_log("test.flight.noop").error("boom")
        assert dump_flight_record("x", component="test.flight.noop") is None


# -- ServiceStats thread-safety -------------------------------------------

class TestServiceStatsConcurrency:
    def test_no_lost_updates_under_contention(self):
        registry = MetricsRegistry()
        stats = ServiceStats(registry=registry)
        tiers = ("memo", "cold", "disk", "batch")
        rounds = 200

        def hammer(tier):
            for _ in range(rounds):
                stats.record_tier(tier)
                stats.record_latency(0.001, tier=tier)
                stats.record_request("predict")
                stats.record_coalesced()
                stats.record_error()

        threads = [threading.Thread(target=hammer, args=(tier,))
                   for tier in tiers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        snap = stats.snapshot()
        for tier in tiers:
            assert snap["tiers"][tier] == rounds
        assert snap["requests"]["predict"] == rounds * len(tiers)
        assert snap["coalesced"] == rounds * len(tiers)
        assert snap["errors"] == rounds * len(tiers)
        # Live histograms saw every sample the rings saw.
        histogram = registry.histogram("serve_request_latency_seconds")
        assert histogram.summary()["count"] == rounds * len(tiers)
        for tier in tiers:
            by_tier = registry.histogram("serve_tier_latency_seconds")
            assert by_tier.summary(tier=tier)["count"] == rounds

    def test_per_tier_windows_separate_fast_from_slow(self):
        service = PredictionService()
        for _ in range(10):
            service.stats.record_latency(0.001, tier="memo")
        service.stats.record_latency(0.5, tier="cold")
        by_tier = service.stats_snapshot()["latency_by_tier"]
        assert by_tier["memo"]["count"] == 10
        assert by_tier["cold"]["count"] == 1
        assert by_tier["cold"]["p50_ms"] > by_tier["memo"]["p50_ms"]

    def test_fresh_stats_list_both_latency_histograms_empty(self):
        registry = MetricsRegistry()
        ServiceStats(registry)
        histograms = registry.snapshot()["histograms"]
        exposition = registry.dump_metrics()
        for name in ("serve_request_latency_seconds",
                     "serve_tier_latency_seconds"):
            assert histograms[name] == {}
            assert f"# TYPE {name} histogram" in exposition
            assert f"{name}_count" not in exposition
