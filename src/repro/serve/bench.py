"""Queries-per-second benchmark of the prediction service's tiers.

Measures the same three headline points (the section-V crossover
protocols: ``tree-shaddr``, ``torus-shaddr``,
``allreduce-torus-shaddr``) through a **real loopback server** — socket,
JSON framing and all — under two configurations:

* **cold** — memoization disabled: every query builds a fresh machine
  and runs the DES (the serial-harness baseline);
* **memo** — memoization on: repeat queries are dictionary lookups.

The run **refuses to record** unless (a) every point's cold and
memoized digests are bit-identical — a served answer must be the serial
answer, byte for byte — and (b) the memoized tier clears **100×** the
cold queries/sec.  The recorded ``serve`` entry's tiers gate in CI via
``repro report --check-bench --base serve:cold --new serve:memo
--tolerance 0`` (see ``entry:sweep`` labels in
:func:`repro.telemetry.manifest.compare_bench`).

Run: ``PYTHONPATH=src python -m repro.serve.bench [--smoke] [--out
BENCH_core.json] [--label serve]``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.bench.perfsuite import DEFAULT_OUT, save_entry
from repro.serve.client import ServeClient
from repro.serve.server import start_background_server
from repro.serve.service import PredictionService
from repro.util.units import KIB

#: (sweep point label, family, algorithm, full x, smoke x) — geometry is
#: (2, 2, 2) QUAD throughout, iters=2; x values are pairwise distinct
#: within a size class because the check-bench gate keys points on x
POINTS: List[Tuple[str, str, str, int, int]] = [
    ("tree-shaddr", "bcast", "tree-shaddr", 512 * KIB, 256 * KIB),
    ("torus-shaddr", "bcast", "torus-shaddr", 1024 * KIB, 512 * KIB),
    ("allreduce-torus-shaddr", "allreduce", "allreduce-torus-shaddr",
     96 * KIB, 16 * KIB),
]

#: queries per point per tier (memo repeats dominate the qps signal; the
#: cold tier gets just enough repeats for a stable mean)
REPEATS = {"cold": 2, "memo": 200}

#: the headline acceptance bar: memoized answers at least this many
#: times more queries/sec than cold simulation
MIN_MEMO_SPEEDUP = 100.0


def _point_queries(smoke: bool) -> List[dict]:
    return [
        {
            "family": family,
            "algorithm": algorithm,
            "x": smoke_x if smoke else full_x,
            "dims": [2, 2, 2],
            "mode": "QUAD",
            "iters": 2,
        }
        for _, family, algorithm, full_x, smoke_x in POINTS
    ]


def _measure_tier(tier: str, queries: List[dict]) -> dict:
    """Run one tier's configuration through a fresh loopback server.

    Returns a sweep record (perfsuite shape: ``points``/``wall_s``/
    ``solver``, plus qps riders) with each point's digest attached for
    the cross-tier identity gate.
    """
    service = PredictionService(use_memo=(tier == "memo"))
    repeats = REPEATS[tier]
    points = []
    solvers = set()
    with start_background_server(service) as background:
        with ServeClient(background.address) as client:
            for query in queries:
                # Prime: the memo fill happens here, outside the timed
                # window.
                if tier != "cold":
                    client.predict(**query)
                start = time.perf_counter()
                for _ in range(repeats):
                    response = client.predict(**query)
                wall = time.perf_counter() - start
                served_tier = response["tier"]
                manifest = response.get("manifest") or {}
                if manifest.get("solver_mode"):
                    solvers.add(manifest["solver_mode"])
                points.append({
                    "x": query["x"],
                    "wall_s": round(wall, 4),
                    "elapsed_us": response["elapsed_us"],
                    "qps": round(repeats / wall, 2),
                    "family": query["family"],
                    "algorithm": query["algorithm"],
                    "tier": served_tier,
                    "digest": response["digest"],
                })
                print(f"  [{tier}] {query['algorithm']} x={query['x']}: "
                      f"{repeats / wall:8.1f} q/s  "
                      f"({response['elapsed_us']:.1f} simulated us, "
                      f"served {served_tier})")
            client.shutdown()
    wall_total = sum(point["wall_s"] for point in points)
    queries_total = sum(repeats for _ in points)
    return {
        "wall_s": round(wall_total, 4),
        "solver": "+".join(sorted(solvers)) if solvers else "unknown",
        "queries": queries_total,
        "qps": round(queries_total / wall_total, 2) if wall_total else 0.0,
        "points": points,
    }


def _strip_gate_only_fields(record: dict) -> dict:
    """Drop per-point fields that should not be committed to the entry.

    Digests are the *gate's* evidence; committing them would turn every
    unrelated refactor that legitimately changes simulated timings into
    a stale-digest diff.  The tier tag rides along (it is informative
    and stable).
    """
    slim = dict(record)
    slim["points"] = [
        {key: value for key, value in point.items() if key != "digest"}
        for point in record["points"]
    ]
    return slim


def run_benchmark(out: str, label: str, smoke: bool) -> Dict[str, dict]:
    queries = _point_queries(smoke)
    suite_start = time.perf_counter()
    print(f"serve qps benchmark ({'smoke' if smoke else 'full'} sizes), "
          f"3 points, repeats {REPEATS}")
    records = {
        "cold": _measure_tier("cold", queries),
        "memo": _measure_tier("memo", queries),
    }

    # -- acceptance gates (refuse to record a lying entry) ----------------
    problems: List[str] = []
    for cold_pt, memo_pt in zip(
        records["cold"]["points"], records["memo"]["points"],
    ):
        if cold_pt["digest"] != memo_pt["digest"]:
            problems.append(
                f"{cold_pt['algorithm']} x={cold_pt['x']}: cold/memo "
                f"answers are not bit-identical "
                f"({cold_pt['digest']} vs {memo_pt['digest']})"
            )
    speedup = (
        records["memo"]["qps"] / records["cold"]["qps"]
        if records["cold"]["qps"] else 0.0
    )
    if speedup < MIN_MEMO_SPEEDUP:
        problems.append(
            f"memoized tier is only {speedup:.1f}x cold "
            f"({records['memo']['qps']} vs {records['cold']['qps']} q/s); "
            f"need >= {MIN_MEMO_SPEEDUP:.0f}x"
        )
    if problems:
        print("REFUSING to record the serve entry:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        raise SystemExit(1)

    sweeps = {
        name: _strip_gate_only_fields(record)
        for name, record in records.items()
    }
    sweeps["__meta__"] = {
        "recorded_at": time.strftime("%Y-%m-%d %H:%M:%S"),
        "jobs": 1,
        "cpus": os.cpu_count(),
        "wall_s": round(time.perf_counter() - suite_start, 4),
    }
    save_entry(out, label, sweeps, smoke)
    print(f"\ntier qps (aggregate over {len(queries)} points):")
    for name, record in records.items():
        print(f"  {name:9s} {record['qps']:10.1f} q/s")
    print(f"  memo/cold speedup: {speedup:.0f}x (gate: >= "
          f"{MIN_MEMO_SPEEDUP:.0f}x)")
    print(f"recorded entry {label!r} in {out}")
    return records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark the prediction service's serving tiers",
    )
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="results file (default: %(default)s)")
    parser.add_argument("--label", default="serve",
                        help="entry label (default: %(default)s)")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes (CI); full sizes otherwise")
    arguments = parser.parse_args(argv)
    run_benchmark(arguments.out, arguments.label, arguments.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
