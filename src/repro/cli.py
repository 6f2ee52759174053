"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``list``
    Show registered algorithms for each collective.
``bcast`` / ``allreduce`` / ``allgather``
    Measure one collective on a simulated machine, optionally verifying
    payload delivery and printing a resource-utilization profile.
``predict``
    Print the analytic steady-state bounds for a broadcast algorithm.
``figure``
    Regenerate one of the paper's figures/tables (fig6..fig10, table1).
``chaos``
    Run a seeded transient-fault campaign over the registered collectives
    and write ``BENCH_robustness.json``.
``report``
    Run one collective with telemetry attached and print the per-role /
    per-stage / protocol breakdown; ``--compare`` gates the run's manifest
    against a committed baseline, ``--check-bench`` gates two labelled
    ``BENCH_core.json`` entries.
``trace``
    Run one collective with a telemetry recorder attached and write its
    flows (and role timelines and counter tracks) as a Chrome Trace
    Format JSON for ``chrome://tracing``.
``traffic``
    Run a seeded multi-tenant workload (overlapping collective jobs on
    one machine) and report per-job elapsed plus cross-job slowdown.
``farm``
    The distributed sweep farm (``docs/robustness.md``): ``farm serve``
    hosts the leased work-server with its crash-resumable progress
    journal (``--resume`` continues an interrupted campaign), ``farm
    work`` runs a pull-worker against it, ``farm status`` prints
    campaign progress and robustness rollups (``--bench`` records them
    as a labelled ``BENCH_robustness.json`` entry).
``serve``
    The prediction service (``docs/serving.md``): a long-running query
    server answering predict/select/sweep requests through tiered
    caching — manifest-keyed memoization (``--cache`` persists it
    across restarts), in-flight coalescing — in front of the DES.
    ``serve --stats HOST:PORT`` prints a running server's tier hit rates
    and latency percentiles.
``query``
    The line-delimited-JSON client for ``serve``: one predict/select/
    sweep/stats/ping/shutdown request per invocation.
``params``
    Dump the calibrated model constants.

Machine-building commands accept ``--network`` to pick an interconnect
backend (``torus``, ``fattree``, ``leafspine`` — see
``docs/topologies.md``); ``repro list --network <name>`` filters the
algorithm listing to that backend.

``figure``, ``chaos`` and ``sweep`` accept ``--jobs N`` (or the
``REPRO_JOBS`` env var) to fan their independent simulation points across
worker processes; output is merged deterministically and is identical to
a serial run (see ``docs/performance.md``).  ``chaos`` and ``sweep`` also
accept ``--farm HOST:PORT`` (or the ``REPRO_FARM`` env var) to route the
same points through a sweep-farm work-server instead — same merge, same
bytes.

Examples
--------
::

    python -m repro bcast --size 2M --algorithm torus-shaddr --dims 4x4x4
    python -m repro bcast --size 2M --profile --verify
    python -m repro predict --algorithm torus-direct-put --size 2M
    python -m repro figure fig10
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.bench.harness import run_collective
from repro.collectives.registry import families, iter_algorithms
from repro.hardware import (
    BGPParams,
    Machine,
    Mode,
    UnsupportedTopologyError,
    known_backends,
)
from repro.util.units import parse_size

_FIGURES = ("fig6", "fig7", "fig8", "fig9", "fig10", "table1")


def _parse_dims(text: str):
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"dims must look like 4x4x4, got {text!r}"
        )
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError("dims must be positive")
    return dims


def _parse_mode(text: str) -> Mode:
    try:
        return Mode[text.upper()]
    except KeyError as exc:
        raise argparse.ArgumentTypeError(
            f"mode must be smp/dual/quad, got {text!r}"
        ) from exc


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for independent points (default: the "
             "REPRO_JOBS env var, else serial; 0 = one per CPU); results "
             "are merged deterministically, identical to serial",
    )


def _add_farm_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--farm", default=None, metavar="HOST:PORT",
        help="route the points to a sweep-farm work-server (default: the "
             "REPRO_FARM env var, else local execution); see "
             "'repro farm serve' and docs/robustness.md",
    )


def _add_network_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--network", default="torus", choices=known_backends(),
        help="interconnect backend (default torus); see docs/topologies.md",
    )


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dims", type=_parse_dims, default=(2, 2, 2),
        help="machine geometry, e.g. 4x4x4 (default 2x2x2; the product "
             "is the node count on non-torus networks)",
    )
    _add_network_arg(parser)
    parser.add_argument(
        "--mode", type=_parse_mode, default=Mode.QUAD,
        help="operating mode: smp, dual or quad (default quad)",
    )
    parser.add_argument(
        "--mesh", action="store_true",
        help="3D mesh instead of torus (no wraparound; 3 colors, not 6)",
    )
    parser.add_argument(
        "--iters", type=int, default=1,
        help="Fig-5 measurement iterations (default 1)",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="carry real payload bytes and check bit-exact delivery",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print a resource-utilization report after the run",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Optimizing MPI Collectives ... over the Blue "
            "Gene/P Supercomputer' (IPDPS'11): simulate the paper's "
            "collectives and regenerate its evaluation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list registered algorithms")
    p.add_argument(
        "--network", default=None, choices=known_backends(),
        help="only algorithms that can run on this backend",
    )

    p = sub.add_parser("bcast", help="measure an MPI_Bcast")
    p.add_argument("--size", default="1M", help="message size, e.g. 128K")
    p.add_argument(
        "--algorithm", default="auto",
        help="algorithm name or 'auto' (message-size policy)",
    )
    p.add_argument("--root", type=int, default=0)
    _add_machine_args(p)

    p = sub.add_parser("allreduce", help="measure an MPI_Allreduce (doubles)")
    p.add_argument("--count", default="128K",
                   help="element count, e.g. 512K")
    p.add_argument("--algorithm", default="allreduce-torus-shaddr",
                   help="algorithm name or 'auto' (message-size policy)")
    _add_machine_args(p)

    p = sub.add_parser("allgather", help="measure an MPI_Allgather")
    p.add_argument("--block", default="64K", help="per-rank block size")
    p.add_argument("--algorithm", default="allgather-ring-shaddr",
                   help="algorithm name or 'auto' (block-size policy)")
    _add_machine_args(p)

    p = sub.add_parser("gather", help="measure an MPI_Gather (root 0)")
    p.add_argument("--block", default="64K", help="per-rank block size")
    p.add_argument("--algorithm", default="gather-ring-shaddr")
    _add_machine_args(p)

    p = sub.add_parser("scatter", help="measure an MPI_Scatter (root 0)")
    p.add_argument("--block", default="64K", help="per-rank block size")
    p.add_argument("--algorithm", default="scatter-ring-shaddr")
    _add_machine_args(p)

    p = sub.add_parser("reduce", help="measure an MPI_Reduce (doubles)")
    p.add_argument("--count", default="128K", help="element count")
    p.add_argument("--algorithm", default="reduce-torus-shaddr",
                   help="algorithm name or 'auto' (mode policy)")
    _add_machine_args(p)

    p = sub.add_parser("alltoall", help="measure an MPI_Alltoall")
    p.add_argument("--block", default="8K", help="per-pair block size")
    p.add_argument("--algorithm", default="alltoall-shift-shaddr")
    _add_machine_args(p)

    p = sub.add_parser("barrier", help="measure an MPI_Barrier")
    p.add_argument("--algorithm", default="barrier-gi")
    _add_machine_args(p)

    p = sub.add_parser(
        "pingpong", help="measure point-to-point latency/bandwidth"
    )
    p.add_argument("--size", default="1K", help="message size")
    p.add_argument(
        "--protocol", default="auto",
        choices=["auto", "eager", "rendezvous"],
    )
    p.add_argument("--rank-a", type=int, default=0)
    p.add_argument("--rank-b", type=int, default=None)
    _add_machine_args(p)

    p = sub.add_parser(
        "predict", help="analytic steady-state bounds for a broadcast"
    )
    p.add_argument("--algorithm", required=True)
    p.add_argument("--size", default="2M")
    p.add_argument("--dims", type=_parse_dims, default=(4, 4, 4))
    p.add_argument("--ppn", type=int, default=4)

    p = sub.add_parser("figure", help="regenerate a paper figure/table")
    p.add_argument("name", choices=_FIGURES)
    p.add_argument(
        "--plot", action="store_true",
        help="also render the series as an ASCII chart",
    )
    _add_jobs_arg(p)

    p = sub.add_parser(
        "chaos",
        help="seeded fault campaign: collectives under transient faults",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed (the whole campaign replays from it)",
    )
    p.add_argument(
        "--runs", type=int, default=3,
        help="randomized fault campaigns per algorithm (default 3)",
    )
    p.add_argument(
        "--dims", type=_parse_dims, default=(2, 2, 2),
        help="machine geometry, e.g. 2x2x2",
    )
    _add_network_arg(p)
    p.add_argument(
        "--smoke", action="store_true",
        help="shrink the sweep for CI (1 run, smallest sizes)",
    )
    p.add_argument(
        "--out", default="BENCH_robustness.json",
        help="robustness report path (default BENCH_robustness.json)",
    )
    _add_jobs_arg(p)
    _add_farm_arg(p)

    p = sub.add_parser(
        "traffic",
        help="seeded multi-tenant workload: overlapping jobs on one machine",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="workload seed (the whole scenario replays from it)",
    )
    p.add_argument(
        "--njobs", type=int, default=3,
        help="concurrent collective jobs to draw (default 3)",
    )
    p.add_argument(
        "--dims", type=_parse_dims, default=(2, 2, 2),
        help="machine geometry, e.g. 2x2x2",
    )
    p.add_argument(
        "--mode", type=_parse_mode, default=Mode.QUAD,
        help="operating mode: smp, dual or quad (default quad)",
    )
    _add_network_arg(p)
    p.add_argument(
        "--out", default=None,
        help="write the traffic report JSON here",
    )
    p.add_argument(
        "--bench", default=None, metavar="BENCH_JSON",
        help="also record the scenario as a labelled entry in this "
             "BENCH_core.json (see --label)",
    )
    p.add_argument(
        "--label", default="multitenant",
        help="entry label for --bench (default multitenant)",
    )
    _add_jobs_arg(p)

    p = sub.add_parser(
        "report",
        help="telemetry breakdown of one collective run (+ manifest gate)",
    )
    p.add_argument(
        "--family", default="bcast", choices=sorted(_MEASURE_COMMANDS),
        help="collective family (default bcast)",
    )
    p.add_argument(
        "--algorithm", default="auto",
        help="algorithm name or 'auto' (message-size policy)",
    )
    p.add_argument(
        "--size", default="1M",
        help="the family's size argument (bytes / elements / block)",
    )
    p.add_argument("--root", type=int, default=0)
    p.add_argument(
        "--seed", type=int, default=1234,
        help="run seed recorded in the manifest (default 1234)",
    )
    p.add_argument(
        "--compare", metavar="BASELINE",
        help="gate the manifest against this baseline JSON; exits 1 on "
             "drift beyond tolerance",
    )
    p.add_argument(
        "--write-baseline", metavar="BASELINE",
        help="record this run's manifest into the baseline JSON",
    )
    p.add_argument(
        "--check-bench", metavar="BENCH_JSON",
        help="instead of running: tolerance-gate two labelled entries of "
             "a BENCH_core.json (see --base/--new)",
    )
    p.add_argument("--base", default=None,
                   help="baseline entry label for --check-bench")
    p.add_argument("--new", dest="new_label", default=None,
                   help="candidate entry label for --check-bench")
    p.add_argument(
        "--tolerance", type=float, default=None,
        help="relative drift tolerance for the gates (default: the "
             "baseline file's, else 0.10)",
    )
    _add_machine_args(p)

    p = sub.add_parser(
        "trace",
        help="write a Chrome Trace Format JSON of one collective run",
    )
    p.add_argument(
        "--family", default="bcast", choices=sorted(_MEASURE_COMMANDS),
        help="collective family (default bcast)",
    )
    p.add_argument(
        "--algorithm", default="auto",
        help="algorithm name or 'auto' (message-size policy)",
    )
    p.add_argument(
        "--size", default="1M",
        help="the family's size argument (bytes / elements / block)",
    )
    p.add_argument("--root", type=int, default=0)
    p.add_argument(
        "--out", default="trace.json",
        help="output path (default trace.json)",
    )
    p.add_argument(
        "--no-telemetry", action="store_true",
        help="flow rows only: skip the role timelines and counter tracks",
    )
    p.add_argument(
        "--runtime", default=None, metavar="HOST:PORT",
        help="instead of simulating: export a running prediction "
             "server's runtime spans (serve/parallel/farm) as a Chrome "
             "trace — see docs/observability.md",
    )
    _add_machine_args(p)

    p = sub.add_parser(
        "sweep", help="run a JSON-configured parameter sweep"
    )
    p.add_argument("config", help="path to the sweep JSON config")
    p.add_argument("--out", default=None, help="write results JSON here")
    p.add_argument(
        "--metric", default="bandwidth", choices=["bandwidth", "elapsed"]
    )
    _add_jobs_arg(p)
    _add_farm_arg(p)

    p = sub.add_parser(
        "farm",
        help="distributed sweep farm: leased work-server + pull-workers",
    )
    farm_sub = p.add_subparsers(dest="farm_command", required=True)

    fp = farm_sub.add_parser(
        "serve", help="host the work-server with its progress journal"
    )
    fp.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; to accept workers "
             "from other hosts use 0.0.0.0, which additionally requires "
             "an explicit REPRO_FARM_AUTHKEY — the authkey is the farm's "
             "only trust boundary, see docs/robustness.md)",
    )
    fp.add_argument(
        "--port", type=int, default=8765,
        help="port to bind (default 8765; 0 = ephemeral, printed on start)",
    )
    fp.add_argument(
        "--journal", default="farm_journal.jsonl",
        help="append-only progress journal path "
             "(default farm_journal.jsonl)",
    )
    fp.add_argument(
        "--resume", action="store_true",
        help="reload an interrupted campaign from the journal: journaled "
             "points are never re-run (required when the journal is "
             "non-empty)",
    )
    fp.add_argument(
        "--lease-s", type=float, default=None, metavar="SECONDS",
        help="lease deadline: a chunk not heartbeated for this long is "
             "re-queued (default 30)",
    )
    fp.add_argument(
        "--chunk", type=int, default=None, metavar="POINTS",
        help="points per leased chunk (default: campaign size / 16, "
             "min 1)",
    )
    fp.add_argument(
        "--quiet", action="store_true",
        help="suppress per-lease progress lines on stderr",
    )

    fp = farm_sub.add_parser(
        "work", help="run a pull-worker against a work-server"
    )
    fp.add_argument("server", metavar="HOST:PORT",
                    help="work-server address")
    fp.add_argument(
        "--id", dest="worker_id", default=None,
        help="worker id shown in leases (default: host-pid-random)",
    )
    fp.add_argument(
        "--stay", action="store_true",
        help="keep polling after the campaign completes (a pool worker "
             "awaiting the next campaign) instead of exiting",
    )
    fp.add_argument(
        "--quiet", action="store_true",
        help="suppress per-chunk progress lines on stderr",
    )

    fp = farm_sub.add_parser(
        "status", help="print campaign progress and robustness rollups"
    )
    fp.add_argument("server", metavar="HOST:PORT",
                    help="work-server address")
    fp.add_argument(
        "--bench", default=None, metavar="BENCH_JSON",
        help="also record the farm's robustness rollups as a labelled "
             "entry in this BENCH_robustness.json (see --label)",
    )
    fp.add_argument(
        "--label", default="farm-smoke",
        help="entry label for --bench (default farm-smoke)",
    )
    fp.add_argument(
        "--json", action="store_true",
        help="print the raw status payload as JSON instead of the summary",
    )
    fp.add_argument(
        "--metrics", action="store_true",
        help="also print the server's metrics registry in Prometheus "
             "text exposition format",
    )

    p = sub.add_parser(
        "serve",
        help="prediction service: long-running tiered query server",
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; the server is "
             "unauthenticated — same loopback-only posture as the farm)",
    )
    p.add_argument(
        "--port", type=int, default=8766,
        help="port to bind (default 8766; 0 = ephemeral, printed on start)",
    )
    p.add_argument(
        "--cache", default=None, metavar="PATH",
        help="persist memoized answers here (JSONL keyed by git rev + "
             "spec hash) so restarts serve warm; stale caches are "
             "refused, never silently served",
    )
    p.add_argument(
        "--memo", type=int, default=1024,
        help="in-memory memoization entries (default 1024)",
    )
    p.add_argument(
        "--stats", default=None, metavar="HOST:PORT",
        help="instead of serving: print a running server's stats (tier "
             "hit rates, coalesced count, latency percentiles)",
    )
    p.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also expose the metrics registry over HTTP in Prometheus "
             "text format on this port (GET / or /metrics)",
    )
    _add_jobs_arg(p)
    _add_farm_arg(p)

    p = sub.add_parser(
        "query",
        help="query a running prediction server (see 'repro serve')",
    )
    p.add_argument("server", metavar="HOST:PORT",
                   help="prediction-server address")
    p.add_argument(
        "--op", default="predict",
        choices=["predict", "select", "sweep", "stats", "metrics",
                 "trace", "ping", "shutdown"],
        help="request type (default predict)",
    )
    p.add_argument(
        "--family", default="bcast", choices=sorted(_MEASURE_COMMANDS),
        help="collective family (default bcast)",
    )
    p.add_argument(
        "--algorithm", default="auto",
        help="algorithm name or 'auto' (message-size policy)",
    )
    p.add_argument(
        "--size", default="1M",
        help="the family's size argument (bytes / elements / block)",
    )
    p.add_argument(
        "--dims", type=_parse_dims, default=(2, 2, 2),
        help="machine geometry, e.g. 4x4x4 (default 2x2x2)",
    )
    p.add_argument(
        "--mode", type=_parse_mode, default=Mode.QUAD,
        help="operating mode: smp, dual or quad (default quad)",
    )
    _add_network_arg(p)
    p.add_argument("--iters", type=int, default=1,
                   help="Fig-5 measurement iterations (default 1)")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--root", type=int, default=0)
    p.add_argument(
        "--candidates", default=None,
        help="select: comma-separated algorithms to measure (default: "
             "every registered candidate for the family/mode/network)",
    )
    p.add_argument(
        "--no-measure", action="store_true",
        help="select: return the selection table's choice without "
             "measuring candidates",
    )
    p.add_argument(
        "--points", default=None, metavar="FILE",
        help="sweep: JSON file holding a list of point queries",
    )
    _add_jobs_arg(p)
    p.add_argument(
        "--json", dest="raw_json", default=None, metavar="REQUEST",
        help="send this raw JSON request object instead of building one "
             "from the flags",
    )
    p.add_argument(
        "--pretty", action="store_true",
        help="indent the response JSON",
    )
    p.add_argument(
        "--timeout", type=float, default=300.0,
        help="socket timeout in seconds (default 300)",
    )

    sub.add_parser("params", help="dump the calibrated model constants")
    return parser


def _machine(args) -> Machine:
    return Machine(
        torus_dims=args.dims, mode=args.mode,
        wrap=not getattr(args, "mesh", False),
        network=getattr(args, "network", "torus"),
    )


def _print_profile(machine: Machine) -> None:
    """The ``--profile`` resource-utilization report of a finished run."""
    from repro.bench.profile import format_report, utilization_report

    print(format_report(utilization_report(machine)))


def _finish(args, machine: Machine, result) -> None:
    print(result)
    if args.verify:
        print("payload verified bit-exact at every rank")
    if args.profile:
        _print_profile(machine)


_MODE_NAMES = {1: "smp", 2: "dual", 4: "quad"}


def _cmd_list(args) -> int:
    wires = None
    if getattr(args, "network", None):
        from repro.hardware.network import backend_class

        wires = backend_class(args.network).wires
    for family in families():
        print(f"{family}:")
        for info in iter_algorithms(family):
            if wires is not None and info.network not in wires:
                continue
            modes = ",".join(_MODE_NAMES.get(p, str(p)) for p in info.modes)
            tags = []
            if info.shared_address:
                tags.append("shared-address")
            if not info.data_carrying:
                tags.append("timing-only")
            extra = ("  " + " ".join(tags)) if tags else ""
            print(
                f"  {info.name:24s} net={info.network:5s} "
                f"modes={modes}{extra}"
            )
    return 0


#: measurement subcommand -> (family, size-argument attribute)
_MEASURE_COMMANDS = {
    "bcast": ("bcast", "size"),
    "allreduce": ("allreduce", "count"),
    "allgather": ("allgather", "block"),
    "gather": ("gather", "block"),
    "scatter": ("scatter", "block"),
    "reduce": ("reduce", "count"),
    "alltoall": ("alltoall", "block"),
}


def _cmd_measure(args) -> int:
    family, size_attr = _MEASURE_COMMANDS[args.command]
    x = parse_size(getattr(args, size_attr))  # counts share K/M suffixes
    machine = _machine(args)
    result = run_collective(
        machine, family, args.algorithm, x,
        root=getattr(args, "root", 0), iters=args.iters, verify=args.verify,
    )
    _finish(args, machine, result)
    return 0


def _cmd_barrier(args) -> int:
    machine = _machine(args)
    result = run_collective(
        machine, "barrier", args.algorithm, iters=args.iters
    )
    print(f"{result.algorithm}: {result.elapsed_us:.2f} us on "
          f"{result.nprocs} procs")
    if args.profile:
        _print_profile(machine)
    return 0


def _cmd_pingpong(args) -> int:
    from repro.mpi.p2p import run_pingpong

    machine = _machine(args)
    result = run_pingpong(
        machine,
        parse_size(args.size),
        rank_a=args.rank_a,
        rank_b=args.rank_b,
        protocol=args.protocol,
        iters=max(1, args.iters),
    )
    print(result)
    if args.profile:
        _print_profile(machine)
    return 0


def _cmd_predict(args) -> int:
    from repro.analysis import predict_torus_bcast, predict_tree_bcast

    params = BGPParams()
    nbytes = parse_size(args.size)
    if args.algorithm.startswith("torus"):
        prediction = predict_torus_bcast(
            params, args.algorithm, args.dims, nbytes, ppn=args.ppn
        )
    elif args.algorithm.startswith("tree"):
        prediction = predict_tree_bcast(
            params, args.algorithm, nbytes, ppn=args.ppn
        )
    else:
        print(f"no analytic model for {args.algorithm!r}", file=sys.stderr)
        return 2
    print(f"steady-state bounds for {args.algorithm} at {args.size}:")
    print(prediction)
    print(f"prediction: {prediction.value:.1f} MB/s "
          f"({prediction.bottleneck.name})")
    return 0


def _cmd_figure(args) -> int:
    from repro.bench import experiments

    runner = {
        "fig6": experiments.fig6_tree_latency,
        "fig7": experiments.fig7_tree_bandwidth,
        "fig8": experiments.fig8_syscall_caching,
        "fig9": experiments.fig9_scaling,
        "fig10": experiments.fig10_torus_bandwidth,
        "table1": experiments.table1_allreduce,
    }[args.name]
    result = runner(jobs=args.jobs)
    print(result.table())
    for key, value in result.metrics.items():
        print(f"{key}: {value:.3f}")
    if args.plot:
        from repro.bench.plot import render_chart

        y_label = "latency (us)" if args.name == "fig6" else "MB/s"
        print()
        print(
            render_chart(
                result.x_values,
                result.series,
                y_label=y_label,
                x_format=result.x_format,
            )
        )
    return 0


def _cmd_chaos(args) -> int:
    from repro.bench.chaos import chaos_campaign

    report = chaos_campaign(
        seed=args.seed, runs=args.runs, dims=args.dims,
        smoke=args.smoke, out_path=args.out, jobs=args.jobs,
        network=args.network, farm=args.farm,
    )
    summary = report["summary"]
    print(
        f"chaos campaign (seed {args.seed}): {summary['total_runs']} runs, "
        f"{summary['fallback_events']} fallback(s), "
        f"{summary['full_ladder_walks']} full ladder walk(s), "
        f"{summary['payload_mismatches']} payload mismatch(es)"
    )
    return 0 if summary["payload_mismatches"] == 0 else 1


def _cmd_report(args) -> int:
    import json

    from repro.telemetry import (
        compare_bench,
        compare_with_baseline_file,
        save_baseline,
    )
    from repro.telemetry import format_report as format_telemetry_report

    if args.check_bench:
        if not args.base or not args.new_label:
            print("--check-bench requires --base and --new entry labels",
                  file=sys.stderr)
            return 2
        with open(args.check_bench) as handle:
            bench = json.load(handle)
        tolerance = args.tolerance if args.tolerance is not None else 0.10
        drifts = compare_bench(
            bench, args.base, args.new_label, tolerance=tolerance,
        )
        if drifts:
            print(f"BENCH gate FAILED ({len(drifts)} drift(s)):")
            for line in drifts:
                print(f"  {line}")
            return 1
        print(
            f"BENCH gate OK: {args.base!r} vs {args.new_label!r} within "
            f"±{tolerance:.0%}"
        )
        return 0

    machine = _machine(args)
    recorder = machine.attach_telemetry()
    result = run_collective(
        machine, args.family, args.algorithm, parse_size(args.size),
        root=args.root, iters=args.iters, verify=args.verify,
        seed=args.seed,
    )
    manifest = result.manifest.stamped()
    print(format_telemetry_report(manifest, recorder))
    if args.profile:
        print()
        _print_profile(machine)
    status = 0
    if args.write_baseline:
        save_baseline(args.write_baseline, [manifest])
        print(f"\nbaseline {manifest.spec_key!r} written to "
              f"{args.write_baseline}")
    if args.compare:
        drifts = compare_with_baseline_file(
            manifest, args.compare, tolerance=args.tolerance
        )
        print()
        if drifts:
            print(f"manifest gate FAILED ({len(drifts)} drift(s)):")
            for line in drifts:
                print(f"  {line}")
            status = 1
        else:
            print(f"manifest gate OK vs {args.compare}")
    return status


def _cmd_trace(args) -> int:
    from repro.telemetry.trace import (
        runtime_trace, simulation_trace, write_trace,
    )

    if args.runtime:
        from repro.serve.client import query_server

        response = query_server(args.runtime, {"op": "trace"})
        document = runtime_trace(response.get("spans", []))
        nevents = write_trace(document, args.out)
        print(f"{nevents} runtime span(s) written to {args.out}")
        return 0

    machine = _machine(args)
    recorder = machine.attach_telemetry()
    result = run_collective(
        machine, args.family, args.algorithm, parse_size(args.size),
        root=args.root, iters=args.iters, verify=args.verify,
    )
    document = simulation_trace(
        recorder, flows_only=args.no_telemetry,
        l3_bytes=machine.params.l3_bytes,
    )
    nevents = write_trace(document, args.out)
    print(result)
    print(f"{nevents} duration events written to {args.out}")
    if args.profile:
        _print_profile(machine)
    return 0


def _cmd_sweep(args) -> int:
    from repro.bench.sweep import run_sweep_file

    result = run_sweep_file(args.config, jobs=args.jobs, farm=args.farm)
    metric = "bandwidth" if args.metric == "bandwidth" else "elapsed_us"
    print(f"== {result.name} ({result.kind}) ==")
    print(result.table(metric))
    if args.out:
        result.save(args.out)
        print(f"results written to {args.out}")
    return 0


def _cmd_traffic(args) -> int:
    from repro.bench.traffic import format_traffic_report, run_traffic

    report = run_traffic(
        seed=args.seed, njobs=args.njobs, dims=args.dims,
        mode=args.mode, network=args.network, jobs=args.jobs,
    )
    print(format_traffic_report(report))
    if args.out:
        import json

        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"traffic report written to {args.out}")
    if args.bench:
        from repro.bench.traffic import record_bench_entry

        record_bench_entry(args.bench, args.label, report)
        print(f"BENCH entry {args.label!r} written to {args.bench}")
    return 0


def _cmd_farm(args) -> int:
    from repro.bench import farm as farm_mod

    try:
        return _cmd_farm_inner(args, farm_mod)
    except farm_mod.FarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_farm_inner(args, farm_mod) -> int:
    if args.farm_command == "serve":
        from repro.telemetry.runtime import install_excepthook

        install_excepthook()
        server = farm_mod.FarmServer(
            host=args.host, port=args.port,
            journal_path=args.journal,
            lease_s=(args.lease_s if args.lease_s is not None
                     else farm_mod.DEFAULT_LEASE_S),
            chunk_size=args.chunk,
            resume=args.resume,
            verbose=not args.quiet,
        )
        server.start()
        print(f"farm server on {server.address} "
              f"(journal {args.journal})", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
        return 0
    if args.farm_command == "work":
        worker = farm_mod.FarmWorker(
            args.server, worker_id=args.worker_id,
            exit_when_done=not args.stay, verbose=not args.quiet,
        )
        try:
            chunks = worker.run()
        except KeyboardInterrupt:
            return 0
        print(f"{worker.worker_id}: {chunks} chunk(s), "
              f"{worker.points_computed} point(s) computed")
        return 0
    # status
    status = farm_mod.rpc_retry(args.server, "status")
    if args.json:
        import json

        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        print(farm_mod.format_status(status))
    if args.metrics:
        metrics = farm_mod.rpc_retry(args.server, "metrics")
        print(metrics["exposition"], end="")
    if args.bench:
        farm_mod.record_farm_bench_entry(args.bench, args.label, status)
        print(f"BENCH entry {args.label!r} written to {args.bench}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import json

    from repro.serve.server import PredictionServer
    from repro.serve.service import PredictionService

    if args.stats:
        from repro.serve.client import query_server

        response = query_server(args.stats, {"op": "stats"})
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0

    from repro.telemetry.runtime import install_excepthook, serve_metrics_http

    install_excepthook()
    service = PredictionService(
        max_memo=args.memo,
        cache_path=args.cache,
    )
    server = PredictionServer(
        service, host=args.host, port=args.port,
        jobs=args.jobs, farm=args.farm,
    )
    metrics_addr = None
    if args.metrics_port is not None:
        metrics_server = serve_metrics_http(
            args.host, args.metrics_port, service.metrics_text
        )
        metrics_addr = "{}:{}".format(*metrics_server.server_address[:2])

    class _Announce:
        # run() calls .set() once the socket is accepting — the moment
        # to print the (possibly ephemeral) bound address.
        def set(self):
            host, port = server.address
            extras = []
            if args.cache:
                extras.append(f"cache {args.cache}")
            if metrics_addr:
                extras.append(f"metrics http://{metrics_addr}/metrics")
            suffix = f" ({', '.join(extras)})" if extras else ""
            print(f"prediction server on {host}:{port}{suffix}", flush=True)

    try:
        asyncio.run(server.run(_Announce()))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_query(args) -> int:
    import json

    from repro.serve.client import ServeRequestError, query_server

    if args.raw_json:
        payload = json.loads(args.raw_json)
    elif args.op in ("stats", "metrics", "trace", "ping", "shutdown"):
        payload = {"op": args.op}
    elif args.op == "sweep":
        if not args.points:
            print("sweep requires --points FILE (a JSON list of point "
                  "queries) or --json", file=sys.stderr)
            return 2
        with open(args.points) as handle:
            payload = {"op": "sweep", "points": json.load(handle)}
        if args.jobs is not None:
            payload["jobs"] = args.jobs
    else:
        payload = {
            "op": args.op,
            "family": args.family,
            "x": parse_size(args.size),
            "dims": list(args.dims),
            "mode": args.mode.name,
            "network": args.network,
            "iters": args.iters,
            "seed": args.seed,
            "root": args.root,
        }
        if args.op == "predict":
            payload["algorithm"] = args.algorithm
        else:  # select
            if args.candidates:
                payload["candidates"] = [
                    name.strip() for name in args.candidates.split(",")
                    if name.strip()
                ]
            if args.no_measure:
                payload["measure"] = False
    try:
        response = query_server(args.server, payload, timeout=args.timeout)
    except ServeRequestError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach prediction server at {args.server}: "
              f"{exc}", file=sys.stderr)
        return 2
    print(json.dumps(response, indent=2 if args.pretty else None,
                     sort_keys=True))
    return 0


def _cmd_params(_args) -> int:
    params = BGPParams()
    for field in dataclasses.fields(params):
        print(f"{field.name:28s} {getattr(params, field.name)}")
    return 0


_COMMANDS = {
    "list": _cmd_list,
    **{name: _cmd_measure for name in _MEASURE_COMMANDS},
    "barrier": _cmd_barrier,
    "pingpong": _cmd_pingpong,
    "predict": _cmd_predict,
    "figure": _cmd_figure,
    "chaos": _cmd_chaos,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "sweep": _cmd_sweep,
    "traffic": _cmd_traffic,
    "farm": _cmd_farm,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "params": _cmd_params,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (KeyError, ValueError, UnsupportedTopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
