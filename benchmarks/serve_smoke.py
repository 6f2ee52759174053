"""Serve smoke scenario: cold/memo/warm-restart identity over a real server.

The end-to-end drill behind CI's ``serve-smoke`` job (and a handy local
sanity check).  The script:

1. starts a ``repro serve`` subprocess with an on-disk cache and issues
   a ``repro query`` predict — tier **cold**, digest recorded;
2. repeats the query — tier **memo**, same digest — then exercises
   ``select`` (measured tie-break) and ``sweep`` (one memo hit, one
   batch point);
3. computes the same point through the **in-process serial harness**
   and asserts the served digest is byte-identical to it;
4. checks ``repro serve --stats`` reports the tier counters;
5. scrapes the ``--metrics-port`` Prometheus endpoint mid-drill and
   asserts the ``serve_tier_answers_total`` counters equal the
   ``--stats`` snapshot exactly (``--stats`` reads its counts from the
   same registry counters — see docs/observability.md);
6. SIGTERMs the server, tears the cache file's tail (a crash
   mid-store), restarts it on the same cache, and asserts the repeat
   query is served from **disk** without re-simulating; then stores a
   new point, restarts once more, and asserts that point too comes
   from disk (the torn tail was cut before the store, not merged into
   it);
7. runs the serve QPS benchmark in smoke mode (which itself refuses to
   record unless memoized >= 100x cold and all tiers are bit-identical)
   and gates the recorded entry with ``repro report --check-bench
   --base ci-serve:cold --new ci-serve:memo --tolerance 0``.

Run it from the repo root::

    python benchmarks/serve_smoke.py [--port 8811] [--keep-dir]

Exit status 0 means every assertion held.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.serve.client import query_server  # noqa: E402
from repro.telemetry.runtime import parse_prometheus  # noqa: E402

QUERY_ARGS = ["--family", "bcast", "--algorithm", "tree-shaddr",
              "--size", "64K", "--iters", "2"]
QUERY_JSON = {"op": "predict", "family": "bcast",
              "algorithm": "tree-shaddr", "x": 65536, "iters": 2}
#: a point no earlier step computes: stored after the torn tail
FRESH_ARGS = ["--family", "bcast", "--algorithm", "tree-shaddr",
              "--size", "16K", "--iters", "2"]


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


def _query(args, address):
    result = _run(["query", address, *args], stdout=subprocess.PIPE)
    return json.loads(result.stdout)


def _wait_for_server(address, deadline_s=30.0):
    start = time.monotonic()
    while True:
        try:
            return query_server(address, {"op": "ping"}, timeout=5.0)
        except (ConnectionError, OSError):
            if time.monotonic() - start > deadline_s:
                raise
            time.sleep(0.2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=8811)
    parser.add_argument("--metrics-port", type=int, default=None,
                        help="Prometheus endpoint port (default port+1)")
    parser.add_argument("--keep-dir", action="store_true",
                        help="leave the scratch directory behind")
    args = parser.parse_args(argv)
    address = f"127.0.0.1:{args.port}"
    metrics_port = (args.metrics_port if args.metrics_port is not None
                    else args.port + 1)
    scratch = tempfile.mkdtemp(prefix="serve_smoke_")
    cache = os.path.join(scratch, "serve.cache")
    bench_out = os.path.join(scratch, "bench.json")
    procs = []

    def serve():
        proc = _spawn(["serve", "--host", "127.0.0.1",
                       "--port", str(args.port), "--cache", cache,
                       "--metrics-port", str(metrics_port)])
        procs.append(proc)
        return proc

    try:
        print("[1/7] cold query through repro serve / repro query ...")
        serve()
        _wait_for_server(address)
        cold = _query(QUERY_ARGS, address)
        assert cold["ok"] and cold["tier"] == "cold", cold["tier"]
        digest = cold["digest"]

        print("[2/7] repeat query memoizes; select and sweep work ...")
        memo = _query(QUERY_ARGS, address)
        assert memo["tier"] == "memo", memo["tier"]
        assert memo["digest"] == digest, "memoized answer changed bytes"

        selection = _query(["--op", "select", "--family", "bcast",
                            "--size", "64K", "--iters", "2",
                            "--candidates", "tree-shaddr,tree-shmem"],
                           address)
        assert selection["table_choice"] == "tree-shaddr", selection
        measured = {entry["algorithm"]: entry
                    for entry in selection["candidates"]}
        assert measured["tree-shaddr"]["tier"] == "memo", selection
        assert measured["tree-shaddr"]["digest"] == digest, selection

        points_file = os.path.join(scratch, "points.json")
        with open(points_file, "w") as handle:
            json.dump([
                {"family": "bcast", "algorithm": "tree-shaddr",
                 "x": 65536, "iters": 2},
                {"family": "bcast", "algorithm": "tree-shaddr",
                 "x": 32768, "iters": 2},
            ], handle)
        sweep = _query(["--op", "sweep", "--points", points_file], address)
        tiers = [point["tier"] for point in sweep["points"]]
        assert tiers == ["memo", "batch"], tiers
        assert sweep["points"][0]["digest"] == digest, sweep

        print("[3/7] served digest is byte-identical to the serial "
              "harness ...")
        from repro.bench.harness import run_collective
        from repro.hardware.machine import Machine, Mode
        from repro.util.records import pickle_digest

        machine = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
        serial = run_collective(machine, "bcast", "tree-shaddr", 65536,
                                iters=2)
        assert pickle_digest(serial) == digest, (
            "served answer is NOT byte-identical to the serial harness"
        )

        print("[4/7] repro serve --stats reports the tiers ...")
        stats_run = _run(["serve", "--stats", address],
                         stdout=subprocess.PIPE)
        stats = json.loads(stats_run.stdout)
        # Two computations: the first query and select's tree-shmem
        # candidate, each on a fresh machine.
        assert stats["tiers"]["cold"] == 2, stats["tiers"]
        assert stats["tiers"]["memo"] >= 2, stats["tiers"]
        assert stats["tiers"]["batch"] == 1, stats["tiers"]
        assert stats["disk"]["entries"] >= 2, stats["disk"]
        assert stats["latency"]["count"] >= 4, stats["latency"]

        print("[5/7] Prometheus scrape matches the --stats snapshot ...")
        import urllib.request

        with urllib.request.urlopen(
                f"http://127.0.0.1:{metrics_port}/metrics",
                timeout=10) as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain"), response.headers["Content-Type"]
            scraped = parse_prometheus(response.read().decode())
        tier_counters = scraped.get("serve_tier_answers_total", {})
        for tier, count in stats["tiers"].items():
            assert tier_counters.get(f"tier={tier}", 0.0) == count, (
                f"scraped {tier} counter {tier_counters} does not match "
                f"--stats {stats['tiers']}"
            )
        assert scraped["serve_requests_total"].get("op=predict") == (
            stats["requests"]["predict"]
        ), scraped.get("serve_requests_total")

        print("[6/7] SIGTERM the server and tear the cache's tail; "
              "restarts serve warm from the cache ...")

        def restart(tear=False):
            server = procs[-1]
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=30)
            if tear:  # a crash mid-store leaves a newline-less fragment
                with open(cache, "a") as handle:
                    handle.write('{"kind": "result", "key": "torn')
            serve()
            _wait_for_server(address)

        def assert_nothing_recomputed():
            stats_run = _run(["serve", "--stats", address],
                             stdout=subprocess.PIPE)
            stats = json.loads(stats_run.stdout)
            assert stats["tiers"]["cold"] == 0, (
                "restart re-simulated a cached point: "
                + repr(stats["tiers"])
            )

        restart(tear=True)
        warm_restart = _query(QUERY_ARGS, address)
        assert warm_restart["tier"] in ("disk", "memo"), warm_restart["tier"]
        assert warm_restart["digest"] == digest, (
            "restarted server changed the answer's bytes"
        )
        assert_nothing_recomputed()
        fresh = _query(FRESH_ARGS, address)
        assert fresh["tier"] == "cold", fresh["tier"]
        restart()
        stored = _query(FRESH_ARGS, address)
        assert_nothing_recomputed()
        assert stored["tier"] == "disk", stored["tier"]
        assert stored["digest"] == fresh["digest"], (
            "restarted server changed the answer's bytes"
        )

        print("[7/7] qps benchmark records and gates the serve entry ...")
        subprocess.run(
            [sys.executable, "-m", "repro.serve.bench", "--smoke",
             "--out", bench_out, "--label", "ci-serve"],
            env=_env(), cwd=REPO_ROOT, check=True,
        )
        _run(["report", "--check-bench", bench_out,
              "--base", "ci-serve:cold", "--new", "ci-serve:memo",
              "--tolerance", "0"])
        with open(bench_out) as handle:
            entry = json.load(handle)["entries"]["ci-serve"]
        speedup = (entry["sweeps"]["memo"]["qps"]
                   / entry["sweeps"]["cold"]["qps"])
        print(f"serve smoke OK: bit-identical across tiers, restart served "
              f"from cache, memo {speedup:.0f}x cold "
              f"({entry['sweeps']['memo']['qps']:.0f} vs "
              f"{entry['sweeps']['cold']['qps']:.1f} q/s)")
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
