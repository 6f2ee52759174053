"""The prediction service: a long-running, tiered query server.

The simulator answers "what does protocol P on geometry G at size S
cost?"; this package productizes that answer behind a line-delimited-JSON
server with two performance tiers (``docs/serving.md``):

* **tier 1 — memoization**: an LRU keyed on the full query identity,
  values carrying :class:`~repro.telemetry.manifest.RunManifest` results,
  backed by an on-disk cache invalidated by git rev + spec hash so
  restarts serve from disk;
* **tier 2 — coalescing + batching**: duplicate in-flight queries await
  one computation, and ``sweep`` batches fan through
  :func:`~repro.bench.parallel.execute_points` (``--jobs`` /
  ``REPRO_FARM``), so a sweep farm can back large backfills.

Everything else computes cold: a full DES run on a freshly built
machine, the same :func:`~repro.bench.parallel.run_point` call every
sweep point makes.

Entry points: ``repro serve`` (the server), ``repro query`` (the
client), :mod:`repro.serve.bench` (the cold/memoized
queries-per-second benchmark behind the ``serve`` entry of
``BENCH_core.json``).
"""

from repro.serve.client import ServeClient, query_server
from repro.serve.server import PredictionServer, start_background_server
from repro.serve.service import (
    DiskCache,
    MemoCache,
    PredictionService,
    QueryError,
    normalize_query,
)

__all__ = [
    "DiskCache",
    "MemoCache",
    "PredictionServer",
    "PredictionService",
    "QueryError",
    "ServeClient",
    "normalize_query",
    "query_server",
    "start_background_server",
]
