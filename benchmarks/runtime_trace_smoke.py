"""Runtime-trace smoke: one sweep, one Chrome trace, serve -> farm chain.

The end-to-end drill behind CI's ``runtime-trace`` job (and a handy
local sanity check) for the runtime observability plane
(docs/observability.md, "Runtime observability").  The script:

1. starts a farm server, two pull-workers, and a ``repro serve --farm``
   prediction server routing sweep batches through the farm;
2. drives one ``repro query --op sweep`` of fresh points through it,
   asserting every point computed in the batch tier;
3. exports the finished spans with ``repro trace --runtime`` and
   asserts the Chrome trace loads, sits under the runtime pid, and
   chains ``serve.sweep`` -> ``serve.sweep.batch`` -> ``farm.chunk.*``
   within one trace id, with every farm chunk attributed to one of the
   two worker ids;
4. scrapes ``repro farm status --metrics`` and asserts the farm's
   Prometheus counters match its status stats.

Run it from the repo root::

    python benchmarks/runtime_trace_smoke.py [--port 8821] [--keep-dir]

Exit status 0 means every assertion held.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.farm import rpc  # noqa: E402
from repro.serve.client import query_server  # noqa: E402
from repro.telemetry.runtime import parse_prometheus  # noqa: E402
from repro.telemetry.trace import RUNTIME_TRACE_PID  # noqa: E402

SWEEP_POINTS = [
    {"family": "bcast", "algorithm": "tree-shaddr", "x": 24576, "iters": 2},
    {"family": "bcast", "algorithm": "tree-shaddr", "x": 49152, "iters": 2},
    {"family": "bcast", "algorithm": "torus-shaddr", "x": 24576, "iters": 2},
]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return env


def _spawn(args, **kwargs):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=_env(), cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, **kwargs
    )


def _run(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(), cwd=REPO_ROOT, check=True, **kwargs
    )


def _wait_for_serve(address, deadline_s=30.0):
    start = time.monotonic()
    while True:
        try:
            return query_server(address, {"op": "ping"}, timeout=5.0)
        except (ConnectionError, OSError):
            if time.monotonic() - start > deadline_s:
                raise
            time.sleep(0.2)


def _wait_for_farm(address, deadline_s=30.0):
    start = time.monotonic()
    while True:
        try:
            return rpc(address, "status")
        except (ConnectionError, OSError):
            if time.monotonic() - start > deadline_s:
                raise
            time.sleep(0.2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=8821,
                        help="serve port (the farm binds port+1)")
    parser.add_argument("--keep-dir", action="store_true",
                        help="leave the scratch directory behind")
    args = parser.parse_args(argv)
    serve_address = f"127.0.0.1:{args.port}"
    farm_address = f"127.0.0.1:{args.port + 1}"
    scratch = tempfile.mkdtemp(prefix="runtime_trace_smoke_")
    journal = os.path.join(scratch, "journal.jsonl")
    trace_out = os.path.join(scratch, "runtime_trace.json")
    procs = []

    try:
        print("[1/4] farm server + 2 workers + repro serve --farm ...")
        procs.append(_spawn(["farm", "serve", "--host", "127.0.0.1",
                             "--port", str(args.port + 1),
                             "--journal", journal, "--chunk", "1",
                             "--quiet"]))
        _wait_for_farm(farm_address)
        for worker_id in ("smoke-w1", "smoke-w2"):
            procs.append(_spawn(["farm", "work", farm_address,
                                 "--id", worker_id, "--stay", "--quiet"]))
        procs.append(_spawn(["serve", "--host", "127.0.0.1",
                             "--port", str(args.port),
                             "--farm", farm_address]))
        _wait_for_serve(serve_address)

        print("[2/4] one sweep query fans through the farm ...")
        points_file = os.path.join(scratch, "points.json")
        with open(points_file, "w") as handle:
            json.dump(SWEEP_POINTS, handle)
        result = _run(["query", serve_address, "--op", "sweep",
                       "--points", points_file], stdout=subprocess.PIPE)
        sweep = json.loads(result.stdout)
        tiers = [point["tier"] for point in sweep["points"]]
        assert tiers == ["batch"] * len(SWEEP_POINTS), tiers

        print("[3/4] repro trace --runtime: serve -> batch -> farm "
              "chunk chain ...")
        _run(["trace", "--runtime", serve_address, "--out", trace_out],
             stdout=subprocess.DEVNULL)
        with open(trace_out) as handle:
            document = json.load(handle)
        assert document["otherData"]["kind"] == "runtime-spans", (
            document.get("otherData")
        )
        spans = [event for event in document["traceEvents"]
                 if event.get("ph") == "X"]
        assert spans and all(
            event["pid"] == RUNTIME_TRACE_PID for event in spans
        ), "runtime spans must sit under their own pid"
        by_id = {event["args"]["span_id"]: event for event in spans}

        sweeps = [e for e in spans if e["name"] == "serve.sweep"]
        batches = [e for e in spans if e["name"] == "serve.sweep.batch"]
        chunks = [e for e in spans if e["name"].startswith("farm.chunk.")]
        assert sweeps, "no serve.sweep span exported"
        assert batches, "no serve.sweep.batch span exported"
        assert len(chunks) >= len(SWEEP_POINTS), (
            f"expected >= {len(SWEEP_POINTS)} farm chunk spans, got "
            f"{len(chunks)}"
        )
        # Every farm chunk chains: chunk -> batch -> sweep, one trace id
        # end to end, attributed to one of the two worker processes.
        workers_seen = set()
        for chunk in chunks:
            batch = by_id.get(chunk["args"]["parent_id"])
            assert batch is not None and batch["name"] == (
                "serve.sweep.batch"
            ), f"chunk span {chunk['args']} has no batch parent"
            sweep_span = by_id.get(batch["args"]["parent_id"])
            assert sweep_span is not None and sweep_span["name"] == (
                "serve.sweep"
            ), f"batch span {batch['args']} has no sweep parent"
            assert (chunk["args"]["trace_id"] == batch["args"]["trace_id"]
                    == sweep_span["args"]["trace_id"]), "trace id broke"
            assert chunk["args"]["worker"] in ("smoke-w1", "smoke-w2"), (
                chunk["args"]
            )
            workers_seen.add(chunk["args"]["worker"])
        span_ids = [event["args"]["span_id"] for event in spans]
        assert len(span_ids) == len(set(span_ids)), "span ids collided"

        print("[4/4] farm status --metrics matches the status stats ...")
        status = rpc(farm_address, "status")
        result = _run(["farm", "status", farm_address, "--metrics"],
                      stdout=subprocess.PIPE)
        scraped = parse_prometheus(result.stdout.decode())
        assert scraped["farm_points_completed_total"][""] == (
            status["stats"]["points_completed"]
        ), scraped.get("farm_points_completed_total")
        assert scraped["farm_chunks_completed_total"][""] == (
            status["stats"]["chunks_completed"]
        ), scraped.get("farm_chunks_completed_total")

        query_server(serve_address, {"op": "shutdown"})
        print(f"runtime trace smoke OK: {len(spans)} span(s), "
              f"{len(chunks)} farm chunk(s) across "
              f"{len(workers_seen)} worker(s), one trace end to end")
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if args.keep_dir:
            print(f"scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
