"""Benchmark harness: the Fig-5 microbenchmark and per-figure experiments."""

from repro.bench.harness import run_collective
from repro.bench.parallel import ParallelExecutor, execute_points, resolve_jobs
from repro.bench.profile import UtilizationReport, format_report, utilization_report
from repro.bench.report import Series, format_table, speedup


def __getattr__(name):
    # Lazy so `python -m repro.bench.perfsuite` doesn't import the module
    # twice (runpy warns when the target is already in sys.modules).
    if name in ("run_suite", "speedup_table"):
        from repro.bench import perfsuite

        return getattr(perfsuite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ParallelExecutor",
    "execute_points",
    "resolve_jobs",
    "run_collective",
    "run_suite",
    "speedup_table",
    "Series",
    "format_table",
    "speedup",
    "UtilizationReport",
    "utilization_report",
    "format_report",
]
