"""End-to-end benchmark: three paper sweeps and two served query streams.

Run from anywhere; the simulator is imported from ``src/`` of the
checkout this file sits in::

    python3 benchmarks/e2e/run.py --seed 1 [--workload NAME] [--trace]
                                  [--seconds S] [--out R.json]
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --write-reference

Each workload repeats passes for ``--seconds`` (at least three); every
pass runs in a fresh interpreter, so set-up is paid and measured per
pass.  Sweep passes call ``run_point`` in a worker process; serve passes
start ``repro serve --port 0`` and stream requests through one
``ServeClient`` connection from this process.  All of them run on one
CPU, and every time is scaled to a reference host speed by a gauge
sampled while the pass runs (``gauge.py``).  Every answer is checked
bit-for-bit against ``reference.json``.  ``--trace`` adds one pass under
``cProfile`` for the per-layer split.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(per-layer metrics with ``--trace``).  Metric names, units, directions
and bounds come from ``BENCHMARK.json``; see ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from itertools import zip_longest
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from gauge import Sample, SpeedGauge
from layers import LAYERS
from workloads import SERVES, WORKLOADS, pass_points, point_key, reference_points

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
REFERENCE_FILE = HERE / "reference.json"

#: fewest passes a run measures, whatever ``--seconds`` says
MIN_PASSES = 3
#: a child still running after this long is killed and its pass failed
PROCESS_TIMEOUT_S = 120.0
#: ``setup_s`` regresses only when it also worsens by this many seconds
SETUP_FLOOR_S = 0.05
#: tail percentiles, highest first; one is reported when at least ten
#: samples lie beyond it
TAIL_QUANTILES = (0.999, 0.99, 0.9)
#: the speed gauge's median sample on the host the benchmark was written
#: on (a 2-vCPU shared VM); timings are scaled to a host that runs the
#: gauge's work this fast
REFERENCE_GAUGE_S = 0.002
#: gauge samples this close to an interval gauge it too, so that a 40-ms
#: request is gauged by several
GAUGE_WINDOW_S = 0.25
#: reported beside the BENCHMARK.json metrics and compared exactly
FAILED_FRAC = "failed_frac"
#: per-layer times reported in ``--out`` only: they read 0 on every run
#: of a workload that serves nothing, and the server rounds its own
#: latencies to microseconds
DIAGNOSTIC_UNITS = {
    "telemetry.self_s": "s", "serve.self_s": "s",
    "serve.hit_ms_p50": "ms", "serve.hit_ms_p99": "ms",
    "serve.miss_ms_p90": "ms", "serve.server_memo_ms_p50": "ms",
    "serve.wire_ms_p50": "ms",
}


# -- statistics ------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    # round() keeps 0.9 * 100 at rank 90, not 91
    return ordered[max(0, math.ceil(round(q * len(ordered), 9)) - 1)]


def tail_quantile(count: int) -> Optional[float]:
    """The highest tail percentile with at least ten samples beyond it."""
    for q in TAIL_QUANTILES:
        if round(count * (1.0 - q), 9) >= 10:
            return q
    return None


def at_reference_speed(seconds: float, start: float,
                       samples: Sequence[Sample]) -> float:
    """An interval's seconds as a host at reference speed would take them.

    The gauge's own samples inside the interval are taken out of it;
    the rest is scaled by ``REFERENCE_GAUGE_S`` over the median sample
    taken within ``GAUGE_WINDOW_S`` of it (any sample of the pass, when
    none was).
    """
    end = start + seconds
    own = sum(took for at, took in samples if start <= at < end)
    near = [took for at, took in samples
            if start - GAUGE_WINDOW_S <= at < end + GAUGE_WINDOW_S]
    reading = statistics.median(near or [took for _, took in samples])
    return (seconds - own) * REFERENCE_GAUGE_S / reading


def spread(values: Sequence[float]) -> float:
    """Interquartile distance of a run's passes as a share of their median.

    Quartiles interpolate between the passes: with three passes the
    default (exclusive) method returns the full range instead.
    """
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / median if median else 0.0


def count_failures(points: Sequence[dict], ops: Sequence[dict],
                   reference: Dict[str, float]) -> int:
    """Operations that raised, were refused, went missing, or answered
    an ``elapsed_us`` that differs from the reference in any bit."""
    failed = 0
    for point, op in zip_longest(points, ops):
        if (point is None or op is None or "error" in op
                or op.get("elapsed_us") != reference.get(point_key(point))):
            failed += 1
    return failed


# -- child processes -------------------------------------------------------

def _child_env() -> Dict[str, str]:
    # Solver and serve knobs stay at their defaults; a pinned hash seed
    # keeps set iteration order, and with it host time, the same per run.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class _Child:
    """A child process with piped output, killed if it outlives the timeout.

    Leaving the ``with`` block kills the child if it still runs, closes
    its pipes and waits for it.
    """

    def __init__(self, args: List[str]):
        self.proc = subprocess.Popen(
            args, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        self._watchdog = threading.Timer(PROCESS_TIMEOUT_S, self.proc.kill)
        self._watchdog.start()

    def __enter__(self) -> subprocess.Popen:
        return self.proc

    def __exit__(self, *exc_info) -> None:
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.__exit__(*exc_info)


def _failed_pass(began: float, setup_s: Optional[float], why: str) -> dict:
    print(f"  pass failed: {why.strip()[-2000:]}", file=sys.stderr)
    return {"began": began, "setup_s": setup_s, "wall_s": None, "ops": []}


def worker_pass(job: dict) -> dict:
    """One pass in a fresh worker interpreter (see ``worker.py``)."""
    began = time.perf_counter()
    job = {**job, "src": str(SRC)}
    with _Child([sys.executable, str(HERE / "worker.py"), json.dumps(job)]) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - began
        out, err = proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        return _failed_pass(began, setup_s if ready else None, err or out)
    result = json.loads(out.splitlines()[-1])
    result.update(began=began, setup_s=setup_s)
    return result


def _serve_client():
    """``ServeClient`` and ``ServeRequestError`` from this checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.serve import client

    if Path(client.__file__).resolve().parents[1] != SRC / "repro":
        raise RuntimeError(f"imported {client.__file__}, not the one under {SRC}")
    return client.ServeClient, client.ServeRequestError


def serve_pass(stream: List[dict]) -> dict:
    """One serve pass against a fresh ``repro serve`` process."""
    ServeClient, ServeRequestError = _serve_client()
    began = time.perf_counter()
    with _Child([sys.executable, "-m", "repro", "serve", "--port", "0"]) as proc:
        announce = proc.stdout.readline()
        if not announce.startswith("prediction server on "):
            proc.kill()
            return _failed_pass(began, None, announce + proc.communicate()[1])
        with ServeClient(announce.split()[3]) as client:
            setup_s = time.perf_counter() - began
            ops = []
            start = time.perf_counter()
            for query in stream:
                sent = time.perf_counter()
                try:
                    response = client.predict(**query)
                except (ServeRequestError, OSError) as exc:
                    op = {"error": f"{type(exc).__name__}: {exc}"}
                else:
                    op = {"elapsed_us": response["elapsed_us"],
                          "tier": response["tier"]}
                op["start"] = sent
                op["seconds"] = time.perf_counter() - sent
                ops.append(op)
            wall_s = time.perf_counter() - start
            try:
                stats = client.stats()
                client.shutdown()
            except (ServeRequestError, OSError) as exc:
                return _failed_pass(began, setup_s, f"server lost: {exc}")
        proc.communicate()
    memo_latency = stats["latency_by_tier"].get("memo", {})
    return {
        "began": began, "setup_s": setup_s,
        "start": start, "wall_s": wall_s, "ops": ops,
        "tiers": stats["tiers"],
        "server_memo_ms_p50": memo_latency.get("p50_ms", 0.0),
    }


# -- measuring one workload ------------------------------------------------

def _metric(value, unit: str, samples: Sequence[float] = (),
            count: Optional[int] = None) -> dict:
    out = {"value": value, "unit": unit}
    if samples:
        out["samples"] = list(samples)
        out["n"] = len(samples) if count is None else count
    return out


def end_to_end(passes: List[dict], attempted: int, failed: int,
               units: Dict[str, str]) -> Dict[str, dict]:
    """The untraced passes' metrics, plus ``failed_frac``.

    Every interval is taken at reference speed (``at_reference_speed``);
    each metric is the median over the run's passes.  The per-pass
    samples ride along for ``--compare``, and the unscaled pass times
    and each pass's median gauge sample for the reader.
    """
    timed = [p for p in passes if p["wall_s"] is not None]
    if not timed:
        raise RuntimeError("no pass completed; nothing was measured")
    setups = [at_reference_speed(p["setup_s"], p["began"], p["gauge"])
              for p in passes if p["setup_s"] is not None]
    walls = [at_reference_speed(p["wall_s"], p["start"], p["gauge"])
             for p in timed]
    qps = [len(p["ops"]) / wall for p, wall in zip(timed, walls)]
    # Every sweep point runs the simulator; a served request misses when
    # the memo did not answer it.
    misses = [[at_reference_speed(op["seconds"], op["start"], p["gauge"]) * 1e3
               for op in p["ops"] if op.get("tier") != "memo"] for p in timed]
    pooled = [ms for pass_misses in misses for ms in pass_misses]
    miss_p50s = [statistics.median(m) for m in misses if m]
    median = statistics.median
    raw_walls = [p["wall_s"] for p in timed]
    gauges = [median(took for _, took in p["gauge"]) for p in passes]
    out = {
        "setup_s": _metric(median(setups), units["setup_s"], setups),
        "sweep_s": _metric(median(walls), units["sweep_s"], walls),
        "qps": _metric(median(qps), units["qps"], qps),
        "miss_ms_p50": _metric(median(miss_p50s), units["miss_ms_p50"],
                               miss_p50s, count=len(pooled)),
        FAILED_FRAC: _metric(failed / attempted, "fraction"),
        "unscaled_sweep_s": _metric(median(raw_walls), "s", raw_walls),
        "gauge_s": _metric(median(gauges), "s", gauges),
    }
    tail = tail_quantile(len(pooled))
    if tail is not None:
        out["miss_ms_p50"]["tail"] = {"q": tail, "value": percentile(pooled, tail)}
    return out


def per_layer(passes: List[dict], traced: dict,
              units: Dict[str, str]) -> Dict[str, dict]:
    """The traced pass's layer split and counts, with serve diagnostics
    from the untraced passes (zero on workloads that serve nothing)."""
    timed = [p for p in passes if p["wall_s"] is not None]
    sweep_s = statistics.median(p["wall_s"] for p in timed)
    self_s = traced["self_s"]
    total = sum(self_s.values())
    count = traced["counts"]
    resolves = count["sim.flownet.resolves"]
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.share"] = self_s[layer] / total
    values.update(count)
    values["sim.flownet.us_per_resolve"] = (
        self_s["sim.flownet"] / resolves * 1e6 if resolves else 0.0)
    values["sim.flownet.recarve_ratio"] = (
        count["sim.flownet.recarves"] / resolves if resolves else 0.0)
    values["sim.engine.events_per_s"] = count["sim.engine.events"] / sweep_s
    values["trace_overhead"] = traced["wall_s"] / sweep_s

    served = [p for p in timed if "tiers" in p]
    tiers = {tier: statistics.median_low(p["tiers"].get(tier, 0) for p in served)
             if served else 0 for tier in ("memo", "warm", "cold")}
    answered = (statistics.median_low(sum(p["tiers"].values()) for p in served)
                if served else 0)
    hits = [op["seconds"] * 1e3 for p in served for op in p["ops"]
            if op.get("tier") == "memo"]
    misses = [op["seconds"] * 1e3 for p in served for op in p["ops"]
              if op.get("tier") != "memo"]
    for tier, answers in tiers.items():
        values[f"serve.tier.{tier}"] = answers
    values["serve.memo_hit_ratio"] = tiers["memo"] / answered if answered else 0.0
    values["serve.hit_ms_p50"] = statistics.median(hits) if hits else 0.0
    values["serve.hit_ms_p99"] = percentile(hits, 0.99) if hits else 0.0
    values["serve.miss_ms_p90"] = percentile(misses, 0.9) if misses else 0.0
    values["serve.server_memo_ms_p50"] = (
        statistics.median(p["server_memo_ms_p50"] for p in served)
        if served else 0.0)
    values["serve.wire_ms_p50"] = (
        values["serve.hit_ms_p50"] - values["serve.server_memo_ms_p50"])
    units = {**units, **DIAGNOSTIC_UNITS}
    if set(values) != set(units):
        raise RuntimeError(
            f"per-layer metrics {sorted(set(values) ^ set(units))} differ "
            "between run.py and BENCHMARK.json")
    return {name: _metric(values[name], units[name]) for name in units}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: Dict[str, float], bench: dict,
            gauge: SpeedGauge) -> dict:
    """Run one workload for ``seconds`` (plus a traced pass); summarize."""
    points = pass_points(workload, seed)
    kind = "serve" if workload in SERVES else "sweep"
    job = {"kind": kind, "workload": workload, "seed": seed, "profile": False}

    def one_pass() -> dict:
        with gauge.sampling() as samples:
            result = serve_pass(points) if kind == "serve" else worker_pass(job)
        # A pass that fails at once may end before the first sample.
        result["gauge"] = samples or [gauge.sample()]
        return result

    passes: List[dict] = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    checked = list(passes)
    traced = None
    if trace:
        # The profiled pass of a serve workload runs in-process, so that
        # the profiler sees the thread that computes.
        traced = worker_pass({**job, "profile": True})
        checked.append(traced)
    attempted = len(points) * len(checked)
    failed = sum(count_failures(points, p["ops"], reference) for p in checked)
    units = {group: {m["name"]: m["unit"] for m in bench[group]}
             for group in ("end_to_end", "per_layer")}
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "passes": len(passes),
        "end_to_end": end_to_end(passes, attempted, failed, units["end_to_end"]),
    }
    if traced is not None:
        if traced["wall_s"] is None:
            raise RuntimeError("the traced pass failed")
        result["per_layer"] = per_layer(passes, traced, units["per_layer"])
    return result


def print_report(workload: str, result: dict) -> None:
    print(f"{workload}: {result['passes']} passes, {result['attempted']} "
          f"operations, {result['failed']} failed")
    for name, metric in result["end_to_end"].items():
        line = f"  {name:34s} {metric['value']:14.6g} {metric['unit']:8s}"
        if "n" in metric:
            line += f" n={metric['n']}"
        if "tail" in metric:
            line += f" p{metric['tail']['q'] * 100:g}={metric['tail']['value']:.6g}"
        print(line)
    for name, metric in result.get("per_layer", {}).items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")


# -- comparing two result files ------------------------------------------

def verdict(a: dict, b: dict, better: str, bound: Optional[float],
            floor: float = 0.0) -> str:
    """improved / unchanged / regressed / unresolved for one (metric,
    workload) pair; ``bound=None`` compares exactly."""
    sign = 1.0 if better == "lower" else -1.0
    if bound is None:
        if a["value"] == b["value"]:
            return "unchanged"
        return "regressed" if sign * (b["value"] - a["value"]) > 0 else "improved"
    worse = sign * (b["value"] - a["value"]) / a["value"]
    a_runs, b_runs = a.get("samples", []), b.get("samples", [])
    if max(spread(a_runs), spread(b_runs)) > bound:
        beats_all = a_runs and b_runs and all(
            sign * (y - x) < 0 for x in a_runs for y in b_runs)
        return "improved" if beats_all else "unresolved"
    if worse > bound and abs(b["value"] - a["value"]) > floor:
        return "regressed"
    return "improved" if -worse > bound else "unchanged"


def compare(path_a: str, path_b: str, bench: dict) -> int:
    """Print one row per (metric, workload); exit 1 if any regressed."""
    runs = []
    for path in (path_a, path_b):
        with open(path) as handle:
            runs.append(json.load(handle)["workloads"])
    rows = []
    for workload in [w for w in runs[0] if w in runs[1]]:
        a, b = runs[0][workload], runs[1][workload]
        checks = [(m, "end_to_end", m["bound"]) for m in bench["end_to_end"]]
        checks.append(({"name": FAILED_FRAC, "better": "lower"}, "end_to_end", None))
        checks += [(m, "per_layer", None) for m in bench["per_layer"]
                   if m["unit"] == "count"]
        for spec, group, bound in checks:
            name = spec["name"]
            if name not in a.get(group, {}) or name not in b.get(group, {}):
                continue
            ma, mb = a[group][name], b[group][name]
            floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
            status = verdict(ma, mb, spec["better"], bound, floor)
            change = ((mb["value"] - ma["value"]) / ma["value"]
                      if ma["value"] else float(mb["value"] != ma["value"]))
            noise = max(spread(ma.get("samples", [])), spread(mb.get("samples", [])))
            rows.append((workload, name, ma["value"], mb["value"], change,
                         noise, "exact" if bound is None else f"{bound:.0%}",
                         status))
    print(f"{'workload':16s} {'metric':26s} {'A':>12s} {'B':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  status")
    for workload, name, va, vb, change, noise, bound, status in rows:
        print(f"{workload:16s} {name:26s} {va:12.6g} {vb:12.6g} "
              f"{change:+8.2%} {noise:7.2%} {bound:>6s}  {status}")
    tally = {s: sum(1 for row in rows if row[-1] == s)
             for s in ("improved", "unchanged", "regressed", "unresolved")}
    print(", ".join(f"{count} {status}" for status, count in tally.items()))
    return 1 if tally["regressed"] else 0


# -- the reference ---------------------------------------------------------

def load_reference() -> Dict[str, float]:
    if not REFERENCE_FILE.exists():
        return {}
    with open(REFERENCE_FILE) as handle:
        return json.load(handle)


def write_reference() -> int:
    """Record every workload point on fresh machines; never overwrite a
    value that disagrees.  Points no workload asks for are dropped."""
    points = reference_points()
    result = worker_pass({"kind": "reference", "profile": False})
    errors = [op["error"] for op in result["ops"] if "error" in op]
    if result["wall_s"] is None or errors or len(result["ops"]) != len(points):
        print(f"refusing to write the reference: {errors}", file=sys.stderr)
        return 1
    fresh = {point_key(p): op["elapsed_us"] for p, op in zip(points, result["ops"])}
    existing = load_reference()
    conflicts = sorted(key for key, value in fresh.items()
                       if key in existing and existing[key] != value)
    if conflicts:
        print("refusing to overwrite reference values that disagree:",
              file=sys.stderr)
        for key in conflicts:
            print(f"  {key}: {existing[key]!r} recorded, {fresh[key]!r} now",
                  file=sys.stderr)
        return 1
    with open(REFERENCE_FILE, "w") as handle:
        json.dump(dict(sorted(fresh.items())), handle, indent=1)
        handle.write("\n")
    print(f"{len(fresh)} points, {len(fresh.keys() - existing.keys())} new, "
          f"{len(existing.keys() - fresh.keys())} dropped, "
          f"written to {REFERENCE_FILE.name}")
    return 0


# -- command line -----------------------------------------------------------

def _pin_to_one_cpu() -> None:
    """Run this process, its children and the speed gauge on one CPU.

    The CPUs of a shared host change speed independently, so a gauge
    sampled on one would not gauge a pass that ran on another.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _summary_line(results: Dict[str, dict], trace: bool,
                  bench: dict) -> dict:
    group = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in bench[group]]
    single = len(results) == 1
    metrics = {}
    for workload, result in results.items():
        for name in names:
            key = name if single else f"{workload}/{name}"
            metric = result[group][name]
            metrics[key] = {"value": metric["value"], "unit": metric["unit"]}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the sweep points and the request stream")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a profiled pass; report per-layer metrics")
    parser.add_argument("--out", help="write every metric, with its "
                                      "samples, to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files under the bounds")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference answers")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so that no child outlives the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with open(BENCHMARK_FILE) as handle:
        bench = json.load(handle)
    if args.compare:
        return compare(*args.compare, bench)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    reference = load_reference()
    _pin_to_one_cpu()
    gauge = SpeedGauge()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    trace = bool(args.trace)
    results = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            results[workload] = measure(workload, args.seed, seconds, trace,
                                        reference, bench, gauge)
        except RuntimeError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print_report(workload, results[workload])
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "trace": trace, "workloads": results},
                      handle, indent=1)
            handle.write("\n")
    print(json.dumps(_summary_line(results, trace, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
