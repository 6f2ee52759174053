"""The end-to-end benchmark's workloads and the inputs they are made from.

Three sweep workloads run one pinned grid each (the perfsuite's headline
protocols and geometries); the seed only changes the order in which
their points run.  Two serve workloads send a fixed set of 33 small
queries to the prediction server: ``serve-mix`` as a seeded synthetic
Zipf stream that repeats them, ``serve-distinct`` once each in seeded
order.  The program never sees the seed, only the points and requests
generated from it.
"""

from __future__ import annotations

import random
from typing import Dict, List

KIB = 1024
MIB = 1024 * KIB

#: the pinned sweep grids; each pass runs every point once.  They take the
#: perfsuite's protocols, geometries and iteration counts, but stop below
#: its largest sizes: a pass of 2-3 s, not 7 s, gives a run several
#: passes to take the median of.  They are written out rather than
#: imported, so that a change to the program cannot change what the
#: benchmark measures.
SWEEPS: Dict[str, dict] = {
    # narrow fills: cheap re-solves, engine dispatch is visible
    "tree-bcast": {
        "family": "bcast", "algorithm": "tree-shaddr", "dims": [8, 8, 8],
        "xs": [64 * KIB, 256 * KIB, 512 * KIB], "iters": 6,
    },
    # wide fills: costly re-solves, the flow solver dominates
    "torus-bcast": {
        "family": "bcast", "algorithm": "torus-shaddr", "dims": [4, 4, 4],
        "xs": [64 * KIB, 128 * KIB, 256 * KIB], "iters": 6,
    },
    # the paper's Table I protocol: component membership churns
    "torus-allreduce": {
        "family": "allreduce", "algorithm": "allreduce-torus-shaddr",
        "dims": [4, 4, 4], "xs": [16 * KIB, 32 * KIB, 64 * KIB], "iters": 2,
    },
}

SERVE_MIX = "serve-mix"
SERVE_DISTINCT = "serve-distinct"
SERVES = (SERVE_MIX, SERVE_DISTINCT)
WORKLOADS = (*SWEEPS, *SERVES)

BCAST_PROTOCOLS = (
    "tree-shmem", "tree-shaddr", "tree-dma-direct-put",
    "torus-fifo", "torus-direct-put", "torus-shaddr",
)
BCAST_SIZES = (16 * KIB, 64 * KIB, 256 * KIB, 1 * MIB)
ALLREDUCE_PROTOCOLS = (
    "allreduce-tree", "allreduce-torus-current", "allreduce-torus-shaddr",
)
# 256K stops here: its three allreduces alone would take 2.3 s of host
# time, most of a pass.
ALLREDUCE_SIZES = (16 * KIB, 32 * KIB, 64 * KIB)
SERVE_DIMS = [2, 2, 2]
SERVE_ITERS = 2

REQUESTS_PER_PASS = 2000
ZIPF_EXPONENT = 1.1


def _point(family: str, algorithm: str, x: int, dims: List[int],
           iters: int) -> dict:
    """A ``run_point`` spec, which is also a valid ``predict`` query."""
    return {"family": family, "algorithm": algorithm, "x": x,
            "dims": list(dims), "mode": "QUAD", "iters": iters}


def point_key(point: dict) -> str:
    """The reference key of one point: every field that sets its answer."""
    dims = "x".join(str(d) for d in point["dims"])
    return (f"{point['family']}/{point['algorithm']}/{dims}/{point['mode']}"
            f"/{point['x']}/iters{point['iters']}")


def sweep_points(workload: str, seed: int) -> List[dict]:
    """The workload's grid, in the order the seed gives it."""
    grid = SWEEPS[workload]
    points = [
        _point(grid["family"], grid["algorithm"], x, grid["dims"],
               grid["iters"])
        for x in grid["xs"]
    ]
    random.Random(f"{workload}/{seed}").shuffle(points)
    return points


def serve_queries() -> List[dict]:
    """The 33 distinct queries of the serve workloads, in a fixed order."""
    queries = [
        _point("bcast", algorithm, x, SERVE_DIMS, SERVE_ITERS)
        for algorithm in BCAST_PROTOCOLS for x in BCAST_SIZES
    ]
    queries += [
        _point("allreduce", algorithm, x, SERVE_DIMS, SERVE_ITERS)
        for algorithm in ALLREDUCE_PROTOCOLS for x in ALLREDUCE_SIZES
    ]
    return queries


def serve_stream(seed: int, requests: int = REQUESTS_PER_PASS) -> List[dict]:
    """One pass of ``serve-mix`` requests.

    The traffic is synthetic: no recorded query log backs the exponent,
    the stream length or the query set.  The seed ranks the queries by
    popularity and orders the stream.  Every query appears at least
    once, so each pass computes exactly the same 33 misses; the remaining
    requests are Zipf draws over the ranks.
    """
    rng = random.Random(f"{SERVE_MIX}/{seed}")
    ranked = serve_queries()
    rng.shuffle(ranked)
    weights = [1.0 / rank ** ZIPF_EXPONENT for rank in range(1, len(ranked) + 1)]
    stream = list(ranked)
    stream += rng.choices(ranked, weights=weights, k=requests - len(ranked))
    rng.shuffle(stream)
    return stream


def distinct_stream(seed: int) -> List[dict]:
    """One pass of ``serve-distinct``: each query once, in seeded order,
    so that no request can be answered from the memo."""
    stream = serve_queries()
    random.Random(f"{SERVE_DISTINCT}/{seed}").shuffle(stream)
    return stream


def pass_points(workload: str, seed: int) -> List[dict]:
    """The operations of one pass, in order."""
    if workload == SERVE_MIX:
        return serve_stream(seed)
    if workload == SERVE_DISTINCT:
        return distinct_stream(seed)
    return sweep_points(workload, seed)


def reference_points() -> List[dict]:
    """Every distinct point any workload asks for."""
    grids = [point for name in SWEEPS for point in sweep_points(name, 0)]
    return grids + serve_queries()
