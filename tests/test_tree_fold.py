"""Folding collective-network points to a 2-node machine (``run_point``).

On the collective (tree) and global-interrupt networks every node but
the root's runs the same flows on its own ports, nodes meet only at
global counters and the constant-latency barrier, and machine size
enters only through the tree depth.  :func:`repro.bench.parallel.run_point`
therefore runs such a point on a 2-node machine built at the full
machine's depth and restores the full machine's identity.  Three
guarantees under test:

* **same bytes** — the pickled result equals :func:`run_collective` on
  the full machine, for every tree/GI algorithm in every mode it accepts
  (tier-1 also runs under ``REPRO_SIM_SLOWPATH=1``, so both solvers);
* **engaged only where exact** — a folded point builds exactly one
  2-node machine, and every other point builds exactly one machine of
  the size it names;
* **same errors** — an invalid spec raises the same exception, with the
  same message, as on the full machine.
"""

import pickle

import pytest

import repro.bench.parallel as parallel
from repro.bench.harness import run_collective
from repro.bench.parallel import run_point
from repro.hardware.machine import Machine, Mode

#: (family, algorithm, modes accepted) for every tree/GI algorithm
ALGORITHMS = [
    ("bcast", "tree-shaddr", ("QUAD",)),
    ("bcast", "tree-shmem", ("DUAL", "QUAD")),
    ("bcast", "tree-dma-fifo", ("DUAL", "QUAD")),
    ("bcast", "tree-dma-direct-put", ("DUAL", "QUAD")),
    ("bcast", "tree-smp", ("SMP",)),
    ("allreduce", "allreduce-tree", ("SMP", "DUAL", "QUAD")),
    ("barrier", "barrier-tree", ("SMP", "DUAL", "QUAD")),
    ("barrier", "barrier-gi", ("SMP", "DUAL", "QUAD")),
]

#: (dims, wrap, iters) of the full machines
GEOMETRIES = [((3, 3, 3), True, 3), ((2, 3, 5), True, 1), ((4, 4, 2), False, 3)]

#: x per family: 4 pipeline chunks of bcast (past the 2-chunk tree
#: window), 3 of allreduce
SIZES = {"bcast": 200_000, "allreduce": 20_000, "barrier": 0}

PPN = {"SMP": 1, "DUAL": 2, "QUAD": 4}


def _cases():
    for dims, wrap, iters in GEOMETRIES:
        nnodes = dims[0] * dims[1] * dims[2]
        for family, algorithm, modes in ALGORITHMS:
            for mode in modes:
                roots = (0,)
                if family == "bcast":
                    # First node and last node (local rank 0), and
                    # roots off local rank 0: the first node's local
                    # rank 1 and the last node's last local rank.
                    ppn = PPN[mode]
                    roots = (0, (nnodes - 1) * ppn)
                    if ppn > 1:
                        roots += (1, nnodes * ppn - 1)
                cachings = (True, False) if algorithm == "tree-shaddr" \
                    else (True,)
                for root in roots:
                    for caching in cachings:
                        yield {
                            "family": family, "algorithm": algorithm,
                            "x": SIZES[family], "dims": dims, "mode": mode,
                            "wrap": wrap, "root": root, "iters": iters,
                            "window_caching": caching,
                        }


def _case_id(spec):
    dims = "x".join(map(str, spec["dims"]))
    wrap = "" if spec["wrap"] else "-mesh"
    cache = "" if spec["window_caching"] else "-nocache"
    return (
        f"{spec['algorithm']}-{spec['mode']}-{dims}{wrap}-r{spec['root']}"
        f"-i{spec['iters']}{cache}"
    )


def _full_run(spec):
    """The unfolded answer: run_collective on the machine the spec names."""
    machine = Machine(
        torus_dims=spec.get("dims", (2, 2, 2)),
        mode=Mode[spec.get("mode", "QUAD")],
        wrap=spec.get("wrap", True),
        network=spec.get("network", "torus"),
    )
    kwargs = {
        key: spec[key]
        for key in ("root", "iters", "verify", "window_caching",
                    "deadline_us")
        if key in spec
    }
    return run_collective(
        machine, spec["family"], spec["algorithm"], spec.get("x", 0), **kwargs
    )


CASES = list(_cases())


class TestFoldEquivalence:
    @pytest.mark.parametrize("spec", CASES, ids=[_case_id(s) for s in CASES])
    def test_pickled_result_matches_full_machine(self, spec):
        folded = run_point(spec)
        full = _full_run(spec)
        assert folded.nprocs == full.nprocs
        assert folded.manifest.dims == spec["dims"]
        assert pickle.dumps(folded) == pickle.dumps(full)


@pytest.fixture
def built(monkeypatch):
    """Record the dims of every machine ``run_point`` builds."""
    dims_built = []

    def spy(torus_dims, *args, **kwargs):
        dims_built.append(tuple(torus_dims))
        return Machine(torus_dims, *args, **kwargs)

    monkeypatch.setattr(parallel, "Machine", spy)
    return dims_built


BASE = {"family": "bcast", "algorithm": "tree-shaddr", "x": 65536,
        "dims": (3, 3, 3), "mode": "QUAD"}


class TestFoldEngaged:
    @pytest.mark.parametrize("spec", [
        BASE,
        {**BASE, "root": 26 * 4, "window_caching": False},
        {**BASE, "algorithm": "tree-smp", "mode": "SMP", "root": 13},
        {"family": "allreduce", "algorithm": "allreduce-tree", "x": 512,
         "dims": (2, 3, 5), "mode": "DUAL"},
        {"family": "barrier", "algorithm": "barrier-gi", "dims": (4, 4, 2),
         "wrap": False},
        {"family": "barrier", "algorithm": "barrier-tree", "dims": (3, 3, 3),
         "mode": "SMP", "iters": 3},
    ], ids=["shaddr", "shaddr-last-root", "smp", "allreduce", "barrier-gi",
            "barrier-tree"])
    def test_folded_point_builds_one_two_node_machine(self, spec, built):
        run_point(spec)
        assert built == [(2, 1, 1)]

    @pytest.mark.parametrize("spec", [
        {**BASE, "verify": True},
        {**BASE, "deadline_us": 1e6},
        {**BASE, "algorithm": "auto", "x": 4096},
        {**BASE, "algorithm": "torus-shaddr", "dims": (2, 2, 3)},
        {**BASE, "dims": (2, 1, 1)},
        {"family": "barrier", "algorithm": "barrier-gi", "dims": (2, 2, 2),
         "network": "fattree"},
    ], ids=["verify", "deadline", "auto", "torus", "two-nodes",
            "gi-on-fattree"])
    def test_other_points_build_their_own_machine(self, spec, built):
        run_point(spec)
        assert built == [tuple(spec["dims"])]


class TestFoldErrorParity:
    @pytest.mark.parametrize("spec", [
        {**BASE, "family": "nosuch"},
        {**BASE, "algorithm": "nosuch"},
        {"family": "allreduce", "algorithm": "allreduce-tree", "x": 64,
         "dims": (3, 3, 3), "mode": "QUAD", "root": 4},
        {"family": "allreduce", "algorithm": "allreduce-tree", "x": 64,
         "dims": (3, 3, 3), "mode": "SMP", "root": 4},
        {**BASE, "root": 27 * 4},
        {**BASE, "root": -1},
        {**BASE, "mode": "DUAL"},
        {**BASE, "algorithm": "tree-smp"},
    ], ids=["unknown-family", "unknown-algorithm", "allreduce-root",
            "allreduce-root-smp", "root-nprocs", "root-negative",
            "shaddr-dual", "smp-quad"])
    def test_same_exception_and_message(self, spec):
        with pytest.raises(Exception) as full:
            _full_run(spec)
        with pytest.raises(Exception) as folded:
            run_point(spec)
        assert type(folded.value) is type(full.value)
        assert str(folded.value) == str(full.value)
