"""Benchmark harness: the Fig-5 microbenchmark and per-figure experiments.

Each name below is imported from its module when first read, so a
process that only measures points loads neither the process pool nor
the report formatters.
"""

from repro.util.lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bench.harness": ("run_collective",),
    "repro.bench.parallel": (
        "ParallelExecutor", "execute_points", "resolve_jobs",
    ),
    # On first read only, so that `python -m repro.bench.perfsuite` does
    # not import the module twice (runpy warns when the target is
    # already in sys.modules).
    "repro.bench.perfsuite": ("run_suite", "speedup_table"),
    "repro.bench.profile": (
        "UtilizationReport", "format_report", "utilization_report",
    ),
    "repro.bench.report": ("Series", "format_table", "speedup"),
})
