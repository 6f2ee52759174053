"""Self-tests of the end-to-end benchmark's metric code.

They run no simulation: ``pytest benchmarks/e2e`` takes about a second.
"""

import json
import signal
import time

import pytest

import gauge
import layers
import run
import workloads

PKG = "/checkout/src/repro"
OWN = "/checkout/benchmarks/e2e"


def _row(tt, callers=None, calls=1):
    return (calls, calls, tt, tt, callers or {})


def _attribute(stats):
    return layers.attribute(stats, layers.classifier(PKG, OWN))


# -- layer attribution -----------------------------------------------------

@pytest.mark.parametrize("module, layer", [
    ("sim/engine.py", "sim.engine"),
    ("sim/resources.py", "sim.engine"),
    ("sim/config.py", "sim.flownet"),
    ("collectives/bcast/tree_shaddr.py", "protocol"),
    ("mpi/comm.py", "protocol"),
    ("hardware/machine.py", "hardware"),
    ("bench/warmpool.py", "harness"),
    ("bench/farm.py", "other"),
    ("sim/tracing.py", "other"),
    ("serve/service.py", "serve"),
])
def test_modules_map_to_layers(module, layer):
    assert layers.module_layer(module) == layer


def test_builtin_self_time_is_split_between_its_callers_layers():
    call_at = (f"{PKG}/sim/engine.py", 122, "call_at")
    resolve = (f"{PKG}/sim/flownet.py", 521, "_resolve")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        call_at: _row(2.0),
        resolve: _row(1.0),
        heappush: _row(0.9, {call_at: (10, 10, 0.6, 0.6),
                             resolve: (5, 5, 0.3, 0.3)}),
    }
    self_s = _attribute(stats)
    assert self_s["sim.engine"] == pytest.approx(2.6)
    assert self_s["sim.flownet"] == pytest.approx(1.3)
    assert sum(self_s.values()) == pytest.approx(3.9)


def test_foreign_chains_and_roots_resolve_through_callers():
    proto = (f"{PKG}/collectives/common.py", 10, "pipeline")
    stdlib = ("/usr/lib/python3/heapq.py", 1, "nsmallest")
    builtin = ("~", 0, "<built-in method builtins.sorted>")
    own = (f"{OWN}/worker.py", 30, "main")
    root = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        proto: _row(1.0),
        stdlib: _row(0.5, {proto: (1, 1, 0.5, 0.5), stdlib: (1, 1, 0.0, 0.0)}),
        builtin: _row(0.25, {stdlib: (1, 1, 0.25, 0.25)}),
        own: _row(0.125),
        root: _row(0.0625),
    }
    self_s = _attribute(stats)
    assert self_s["protocol"] == pytest.approx(1.75)
    assert self_s["other"] == pytest.approx(0.1875)


def test_counts_are_call_counts_of_the_named_functions():
    stats = {
        (f"{PKG}/sim/engine.py", 122, "call_at"): (7, 9, 0.0, 0.0, {}),
        (f"{PKG}/sim/events.py", 40, "call_at"): (5, 5, 0.0, 0.0, {}),
        (f"{PKG}/hardware/machine.py", 54, "__init__"): (1, 1, 0.0, 0.0, {}),
    }
    count = layers.counts(stats, PKG)
    assert count["sim.engine.events"] == 9
    assert count["hardware.machines_built"] == 1
    assert count["sim.flownet.resolves"] == 0


# -- percentiles and sample counts -------------------------------------------

@pytest.mark.parametrize("count, q", [
    (9, None), (99, None), (100, 0.9), (999, 0.9), (1000, 0.99),
    (9999, 0.99), (10000, 0.999),
])
def test_tail_percentile_needs_ten_samples_beyond_it(count, q):
    assert run.tail_quantile(count) == q


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 0.9) == 90
    assert run.percentile(values, 0.99) == 99
    assert run.percentile([5.0], 0.5) == 5.0


def _pass(seconds, wall=1.0, tier=None, reading=run.REFERENCE_GAUGE_S):
    """A pass whose one gauge sample, far from every interval, reads
    ``reading``."""
    ops = [{"start": 10.0 + sum(seconds[:i]), "seconds": s, "elapsed_us": 1.0}
           for i, s in enumerate(seconds)]
    if tier:
        for op in ops:
            op["tier"] = tier
    return {"began": 1.0, "setup_s": 0.25, "start": 10.0, "wall_s": wall,
            "ops": ops, "gauge": [(0.0, reading)]}


UNITS = {"setup_s": "s", "sweep_s": "s", "qps": "1/s", "miss_ms_p50": "ms"}


def test_end_to_end_takes_the_median_pass_and_counts_samples():
    passes = [_pass([0.001 * i * scale for i in range(1, 41)], wall=wall)
              for wall, scale in ((2.0, 1.0), (1.0, 1.5), (4.0, 2.0))]
    passes.append(_pass([]) | {"setup_s": 0.5, "wall_s": None})
    metrics = run.end_to_end(passes, attempted=160, failed=40, units=UNITS)
    assert metrics["sweep_s"]["value"] == 2.0
    assert metrics["sweep_s"]["samples"] == [2.0, 1.0, 4.0]
    assert metrics["sweep_s"]["n"] == 3
    assert metrics["setup_s"]["value"] == 0.25
    assert metrics["setup_s"]["n"] == 4
    assert metrics["qps"]["value"] == 20.0
    assert metrics["miss_ms_p50"]["n"] == 120
    assert metrics["miss_ms_p50"]["samples"] == pytest.approx([20.5, 30.75, 41.0])
    assert metrics["miss_ms_p50"]["value"] == pytest.approx(30.75)
    # pooled over passes: 12 of the 120 misses lie beyond 58.5 ms
    assert metrics["miss_ms_p50"]["tail"] == {"q": 0.9,
                                              "value": pytest.approx(58.5)}
    assert metrics["failed_frac"]["value"] == 0.25


def test_memo_hits_are_not_misses():
    passes = [_pass([0.001] * 50 + [0.040], tier="memo")]
    passes[0]["ops"][-1]["tier"] = "warm"
    metrics = run.end_to_end(passes, attempted=51, failed=0, units=UNITS)
    assert metrics["miss_ms_p50"]["value"] == pytest.approx(40.0)
    assert metrics["miss_ms_p50"]["n"] == 1
    assert "tail" not in metrics["miss_ms_p50"]


def test_pass_times_are_scaled_by_the_gauge_during_them():
    slow = 2 * run.REFERENCE_GAUGE_S
    passes = [_pass([0.5, 1.0, 1.5], wall=3.0, reading=slow),
              _pass([0.5, 1.0, 1.5], wall=3.0, reading=slow)]
    metrics = run.end_to_end(passes, attempted=6, failed=0, units=UNITS)
    assert metrics["sweep_s"]["value"] == pytest.approx(1.5)
    assert metrics["setup_s"]["value"] == pytest.approx(0.125)
    assert metrics["qps"]["value"] == pytest.approx(2.0)
    assert metrics["miss_ms_p50"]["value"] == pytest.approx(500.0)
    assert metrics["unscaled_sweep_s"]["value"] == 3.0
    assert metrics["gauge_s"]["value"] == slow


def test_an_interval_loses_the_gauge_samples_inside_it_and_scales_by_those_near():
    ref = run.REFERENCE_GAUGE_S
    samples = [(0.0, 4 * ref), (9.9, 2 * ref), (10.5, 2 * ref)]
    # the sample at 0.0 is too far away to count; the one at 10.5 ran
    # inside the interval, so its time is taken out
    assert run.at_reference_speed(1.0, 10.0, samples) == pytest.approx(
        (1.0 - 2 * ref) / 2)
    # an interval with no sample near it is gauged by all of them
    assert run.at_reference_speed(1.0, 100.0, samples) == pytest.approx(0.5)


def test_gauge_samples_while_the_block_runs_then_restores_the_signal(monkeypatch):
    monkeypatch.setattr(gauge, "QUEUE_EVENTS", 1000)
    meter = gauge.SpeedGauge()
    before = signal.getsignal(signal.SIGALRM)
    with meter.sampling() as samples:
        end = time.perf_counter() + 10 * gauge.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(samples) >= 5
    assert all(took > 0 for _, took in samples)
    assert [at for at, _ in samples] == sorted(at for at, _ in samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- failure counting ------------------------------------------------------

def test_failures_are_errors_missing_answers_and_any_bit_of_difference():
    points = workloads.serve_queries()[:4]
    reference = {workloads.point_key(p): 100.0 + i for i, p in enumerate(points)}
    reference.pop(workloads.point_key(points[3]))
    ops = [
        {"elapsed_us": 100.0},
        {"elapsed_us": 101.00000000000001},
        {"error": "ServeRequestError: refused"},
        {"elapsed_us": 103.0},
    ]
    assert run.count_failures(points, ops, reference) == 3
    assert run.count_failures(points, ops[:1], reference) == 3
    assert run.count_failures(points[:1], ops[:1], reference) == 0


# -- workload determinism ----------------------------------------------------

def _keys(points):
    return [workloads.point_key(p) for p in points]


def test_serve_stream_is_seeded():
    first, again, other = (workloads.serve_stream(s) for s in (7, 7, 8))
    assert first == again
    assert len(first) == workloads.REQUESTS_PER_PASS
    queries = set(_keys(workloads.serve_queries()))
    assert len(queries) == 33
    assert set(_keys(first)) == set(_keys(other)) == queries
    assert _keys(first) != _keys(other)


def test_distinct_stream_sends_each_query_once_in_seeded_order():
    first, again, other = (workloads.distinct_stream(s) for s in (7, 7, 8))
    assert first == again
    assert sorted(_keys(first)) == sorted(_keys(workloads.serve_queries()))
    assert len(set(_keys(first))) == len(first) == 33
    assert _keys(first) != _keys(other)


def test_sweep_grids_are_pinned_and_only_their_order_is_seeded():
    for name in workloads.SWEEPS:
        orders = {tuple(_keys(workloads.sweep_points(name, s))) for s in range(8)}
        assert len({frozenset(order) for order in orders}) == 1
        assert len(orders) > 1
        assert workloads.sweep_points(name, 3) == workloads.sweep_points(name, 3)


def test_reference_covers_every_point():
    with open(run.REFERENCE_FILE) as handle:
        reference = json.load(handle)
    assert set(_keys(workloads.reference_points())) == set(reference)


# -- comparison --------------------------------------------------------------

def _m(value, samples=()):
    return {"value": value, "samples": list(samples)}


@pytest.mark.parametrize("a, b, better, bound, status", [
    (_m(10, [9.9, 10, 10.1]), _m(10.5, [10.4, 10.5, 10.6]), "lower", 0.1, "unchanged"),
    (_m(10, [9.9, 10, 10.1]), _m(12, [11.9, 12, 12.1]), "lower", 0.1, "regressed"),
    (_m(10, [9.9, 10, 10.1]), _m(8, [7.9, 8, 8.1]), "lower", 0.1, "improved"),
    (_m(10, [9.9, 10, 10.1]), _m(8, [7.9, 8, 8.1]), "higher", 0.1, "regressed"),
    (_m(10, [6, 10, 14]), _m(12, [8, 12, 16]), "lower", 0.1, "unresolved"),
    (_m(10, [6, 10, 14]), _m(3, [2, 3, 4]), "lower", 0.1, "improved"),
    (_m(769622), _m(769622), "lower", None, "unchanged"),
    (_m(769622), _m(769623), "lower", None, "regressed"),
    (_m(1), _m(3), "lower", None, "regressed"),
    (_m(0.0), _m(0.0), "lower", None, "unchanged"),
])
def test_verdict(a, b, better, bound, status):
    assert run.verdict(a, b, better, bound) == status


def test_setup_regression_needs_the_absolute_floor_too():
    a, b = _m(0.20, [0.2, 0.2, 0.2]), _m(0.24, [0.24, 0.24, 0.24])
    assert run.verdict(a, b, "lower", 0.1) == "regressed"
    assert run.verdict(a, b, "lower", 0.1, floor=run.SETUP_FLOOR_S) == "unchanged"


def test_per_layer_produces_the_benchmark_json_metrics_and_diagnostics():
    with open(run.BENCHMARK_FILE) as handle:
        bench = json.load(handle)
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    traced = {
        "wall_s": 3.0,
        "self_s": dict.fromkeys(layers.LAYERS, 0.5),
        "counts": dict.fromkeys(layers.COUNTED, 4),
    }
    served = _pass([0.001, 0.002], tier="memo") | {
        "tiers": {"memo": 2, "warm": 0, "cold": 0}, "server_memo_ms_p50": 0.5}
    metrics = run.per_layer([served], traced, units)
    assert set(metrics) == set(units) | set(run.DIAGNOSTIC_UNITS)
    assert not set(units) & set(run.DIAGNOSTIC_UNITS)
    assert metrics["sim.engine.share"]["value"] == 1 / len(layers.LAYERS)
    assert metrics["trace_overhead"]["value"] == 3.0
    assert metrics["serve.memo_hit_ratio"]["value"] == 1.0
    assert metrics["serve.wire_ms_p50"]["value"] == pytest.approx(1.0)
