"""Guard: a timing-only run loads only what it executes.

Every figure this package reproduces comes from timing-only runs, and
none of them moves a byte through numpy.  Each check runs in a fresh
interpreter (the pytest process has long since imported everything) and
asserts module sets only, never wall time:

* ``import repro``, the benchmark worker's imports and ``import
  repro.cli`` load no numpy, no MPI layer (``repro.mpi``), no
  thread-executable FIFOs (``repro.structures``) and no
  ``multiprocessing``;
* a timing-only point of every registered algorithm leaves numpy
  unloaded;
* a ``verify=True`` point of every payload-carrying family loads numpy
  and passes its byte check;
* every lazily exported package name resolves and is listed by ``dir``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: what no timing-only process may import (module name prefixes)
HEAVY = ("numpy", "repro.mpi", "repro.structures", "multiprocessing")

#: one verification point per payload-carrying family: (algorithm, x)
VERIFY_POINTS = {
    "bcast": ("tree-shmem", 4096),
    "allreduce": ("allreduce-torus-shaddr", 512),
    "reduce": ("reduce-torus-shaddr", 512),
    "allgather": ("allgather-ring-shaddr", 1024),
    "alltoall": ("alltoall-shift-shaddr", 256),
    "gather": ("gather-ring-shaddr", 1024),
    "scatter": ("scatter-ring-shaddr", 1024),
}


def fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints last.

    ``loaded(prefixes)`` inside ``code`` lists the imported modules that
    are, or sit under, any of ``prefixes``.
    """
    prelude = textwrap.dedent("""\
        import json, sys

        def loaded(prefixes):
            return sorted(
                name for name in sys.modules
                if any(name == p or name.startswith(p + ".")
                       for p in prefixes)
            )
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("imports", [
    "import repro",
    # benchmarks/e2e/worker.py: everything before its first timed call
    "import repro; import repro.bench.harness; "
    "from repro.bench.parallel import run_point",
    "import repro.cli",
], ids=["repro", "worker", "cli"])
def test_imports_load_nothing_heavy(imports):
    heavy = fresh(f"""
        {imports}
        print(json.dumps(loaded({HEAVY!r})))
    """)
    assert heavy == []


def test_timing_only_points_leave_numpy_unloaded():
    # One 2x2x2 point of every registered algorithm, in the last mode it
    # supports; the first algorithm after which numpy is loaded is named.
    state = fresh(f"""
        from repro.bench.parallel import run_point
        from repro.collectives.registry import families, iter_algorithms
        from repro.hardware import Mode

        culprit, ran = None, 0
        for family in families():
            for info in iter_algorithms(family):
                run_point({{
                    "family": family, "algorithm": info.name,
                    "x": 512, "dims": (2, 2, 2),
                    "mode": Mode(info.modes[-1]).name, "iters": 2,
                }})
                ran += 1
                if culprit is None and loaded(["numpy"]):
                    culprit = info.name
        print(json.dumps({{"culprit": culprit, "ran": ran,
                          "heavy": loaded({HEAVY!r})}}))
    """)
    assert state["ran"] >= 27
    assert state["culprit"] is None
    assert state["heavy"] == []


@pytest.mark.parametrize("family", sorted(VERIFY_POINTS))
def test_verify_point_loads_numpy_and_checks_bytes(family):
    algorithm, x = VERIFY_POINTS[family]
    state = fresh(f"""
        from repro.bench.parallel import run_point

        before = bool(loaded(["numpy"]))
        result = run_point({{
            "family": {family!r}, "algorithm": {algorithm!r}, "x": {x},
            "dims": (2, 2, 2), "mode": "QUAD", "verify": True,
        }})
        print(json.dumps({{"before": before,
                          "after": bool(loaded(["numpy"])),
                          "nbytes": result.nbytes}}))
    """)
    # run_point raises if any rank's delivered bytes differ
    assert not state["before"]
    assert state["after"]
    assert state["nbytes"] > 0


@pytest.mark.parametrize("package", [
    "repro", "repro.bench", "repro.telemetry",
])
def test_lazy_exports_resolve_and_are_listed(package):
    state = fresh(f"""
        import importlib

        module = importlib.import_module({package!r})
        listed = set(dir(module))
        missing = [name for name in module.__all__ if name not in listed]
        unresolved = []
        for name in module.__all__:
            try:
                getattr(module, name)
            except AttributeError:
                unresolved.append(name)
        print(json.dumps({{"missing": missing, "unresolved": unresolved,
                          "count": len(module.__all__)}}))
    """)
    assert state["missing"] == [] and state["unresolved"] == []
    assert state["count"] > 0


def test_unknown_name_still_raises_attribute_error():
    import repro

    with pytest.raises(AttributeError, match="no attribute 'Nonexistent'"):
        repro.Nonexistent  # noqa: B018
