"""The deterministic parallel sweep executor (``repro.bench.parallel``).

Three guarantees under test:

* **byte-identical merge** — fanning a sweep across worker processes
  returns element-wise identical results to the serial run (same floats,
  same order), for both collective networks;
* **crash isolation** — a point whose worker raises fails only that
  point: the pool survives, the other points complete, and the exception
  surfaces with the worker's traceback attached;
* **replayable campaigns** — a seeded chaos campaign run at ``jobs=2``
  reproduces the serial campaign (and the committed
  ``BENCH_robustness.json``) record-for-record.
"""

import json
import multiprocessing
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.bench.chaos import chaos_campaign
from repro.bench.parallel import (
    WorkerPointError,
    _run_chunk,
    chunk_specs,
    execute_points,
    resolve_jobs,
    run_point,
)
from repro.bench.sweep import run_sweep
from repro.hardware.machine import Machine, Mode
from repro.util.buffers import same_bytes

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


# -- module-level tasks (workers import them by qualified name) ----------

def _double_or_explode(spec):
    if spec["x"] == 13:
        raise ValueError("unlucky point 13")
    return spec["x"] * 2


def _double_or_explode_in_worker(spec):
    """Fails only in a worker process, so the serial re-run recovers it."""
    if spec["x"] == 13 and multiprocessing.parent_process() is not None:
        raise ValueError("unlucky point 13 in a worker")
    return spec["x"] * 2


def _double_or_hang(spec):
    if spec["x"] == 13:
        time.sleep(3600)
    return spec["x"] * 2


# -- job resolution ------------------------------------------------------

class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) >= 1

    def test_bad_env_var_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)


# -- byte-identical parallel sweeps --------------------------------------

class TestParallelSweepEquivalence:
    def test_tree_bcast_sweep_matches_serial(self):
        config = {
            "name": "tree-equiv", "kind": "bcast",
            "algorithms": ["tree-shaddr", "tree-dma-fifo"],
            "sizes": ["4K", "16K"],
            "machine": {"dims": [2, 2, 2]}, "iters": 2,
        }
        serial = run_sweep(config, jobs=1)
        parallel = run_sweep(config, jobs=2)
        assert parallel.elapsed_us == serial.elapsed_us
        assert parallel.bandwidth == serial.bandwidth
        assert parallel.x_values == serial.x_values

    def test_torus_allreduce_sweep_matches_serial(self):
        config = {
            "name": "torus-equiv", "kind": "allreduce",
            "algorithms": ["allreduce-torus-shaddr"],
            "sizes": ["1K", "4K"],
            "machine": {"dims": [2, 2, 2]}, "iters": 1,
        }
        serial = run_sweep(config, jobs=1)
        parallel = run_sweep(config, jobs=2)
        assert parallel.elapsed_us == serial.elapsed_us
        assert parallel.bandwidth == serial.bandwidth

    def test_spawn_start_method_point(self):
        # The spawn-safety rule holds end to end: a spec crosses into a
        # spawn-started interpreter, the shared chunk runner measures it
        # there, and the result comes back intact.
        spec = {"family": "bcast", "algorithm": "tree-shaddr", "x": 4096,
                "dims": (2, 2, 1), "mode": "QUAD", "iters": 1}
        serial = run_point(spec)
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            ((index, status, remote),) = pool.submit(
                _run_chunk, run_point, [(0, spec)]
            ).result(timeout=120)
        assert (index, status) == (0, "ok")
        assert remote.elapsed_us == serial.elapsed_us
        assert remote.algorithm == serial.algorithm


# -- crash isolation -----------------------------------------------------

class TestCrashIsolation:
    def test_failed_point_surfaces_traceback_and_pool_survives(self):
        specs = [{"x": x} for x in (1, 13, 3, 4)]
        with pytest.raises(WorkerPointError) as excinfo:
            execute_points(specs, jobs=2, task=_double_or_explode)
        # The worker's formatted traceback is carried along, and the
        # serial re-run's real exception is the cause.
        assert "unlucky point 13" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)
        # The pool keeps draining past a failed point, and a failure
        # that does not reproduce on the serial re-run is recovered.
        assert execute_points(
            specs, jobs=2, task=_double_or_explode_in_worker
        ) == [2, 26, 6, 8]

    def test_serial_mode_raises_plainly(self):
        with pytest.raises(ValueError, match="unlucky point 13"):
            execute_points(
                [{"x": 13}, {"x": 1}], jobs=1, task=_double_or_explode
            )

    def test_worker_traceback_and_spec_are_preserved(self):
        with pytest.raises(WorkerPointError) as excinfo:
            execute_points(
                [{"x": x} for x in (1, 13)], jobs=2, task=_double_or_explode
            )
        assert excinfo.value.index == 1
        assert "unlucky point 13" in excinfo.value.worker_traceback
        assert "_double_or_explode" in excinfo.value.worker_traceback
        # The serial re-run's exception keeps the failing spec in its
        # innermost frame, where a debugger finds it.
        frame = excinfo.value.__cause__.__traceback__
        while frame.tb_next is not None:
            frame = frame.tb_next
        assert frame.tb_frame.f_locals["spec"] == {"x": 13}

    def test_serial_failure_preserves_spec(self):
        # One point runs inline even at jobs=2: the task's own exception
        # surfaces, with the spec in its failing frame.
        with pytest.raises(ValueError, match="unlucky point 13") as excinfo:
            execute_points([{"x": 13}], jobs=2, task=_double_or_explode)
        assert excinfo.traceback[-1].locals["spec"] == {"x": 13}


# -- hung-worker chunk timeout -------------------------------------------

class TestChunkTimeout:
    """``REPRO_CHUNK_TIMEOUT_S`` bounds the pool's wait for its next chunk;
    with 2–4 specs at ``jobs=2`` every chunk holds one point."""

    def test_hung_point_fails_instead_of_hanging(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT_S", "2")
        with pytest.raises(WorkerPointError) as excinfo:
            execute_points(
                [{"x": x} for x in (1, 13, 3)], jobs=2, task=_double_or_hang
            )
        assert excinfo.value.index == 1
        assert "PointTimeout" in excinfo.value.worker_traceback
        assert "{'x': 13}" in excinfo.value.worker_traceback

    def test_hung_point_raises_without_serial_rerun(self, monkeypatch):
        # A serial re-run of a hung point would hang this process too —
        # the timeout must surface as WorkerPointError directly.
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT_S", "2")
        start = time.monotonic()
        with pytest.raises(WorkerPointError) as excinfo:
            execute_points([{"x": 13}, {"x": 1}], jobs=2,
                           task=_double_or_hang)
        assert time.monotonic() - start < 60.0
        assert "timed out" in str(excinfo.value)
        assert "PointTimeout" in excinfo.value.worker_traceback

    def test_executor_survives_a_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT_S", "1")
        before = set(multiprocessing.active_children())
        with pytest.raises(WorkerPointError):
            execute_points([{"x": 13}, {"x": 1}], jobs=2,
                           task=_double_or_hang)
        # The wedged pool's workers were terminated, and the next sweep
        # builds a fresh pool.
        assert set(multiprocessing.active_children()) <= before
        assert execute_points(
            [{"x": 2}, {"x": 3}], jobs=2, task=_double_or_hang
        ) == [4, 6]

    def test_resolve_timeout_env_and_validation(self, monkeypatch):
        # The pool reads the bound before it starts a worker: a value
        # the variable's parser rejects refuses the sweep.
        specs = [{"x": 1}, {"x": 2}]
        for stray in ("soon", "0", "-1"):
            monkeypatch.setenv("REPRO_CHUNK_TIMEOUT_S", stray)
            with pytest.raises(ValueError, match="REPRO_CHUNK_TIMEOUT_S"):
                execute_points(specs, jobs=2, task=_double_or_hang)
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT_S", "30")
        assert execute_points(specs, jobs=2, task=_double_or_hang) == [2, 4]


# -- shared chunking helper ----------------------------------------------

class TestChunkSpecs:
    def test_chunks_cover_all_indices_in_order(self):
        specs = [{"x": x} for x in range(10)]
        chunks = chunk_specs(specs, jobs=2)
        flat = [pair for chunk in chunks for pair in chunk]
        assert flat == list(enumerate(specs))
        assert len(chunks) >= 8  # at least 4 * jobs chunks

    def test_explicit_chunk_size(self):
        chunks = chunk_specs([{"x": x} for x in range(5)], chunk_size=2)
        assert [len(c) for c in chunks] == [2, 2, 1]
        with pytest.raises(ValueError, match="chunk_size"):
            chunk_specs([{}], chunk_size=0)


# -- parallel chaos campaigns --------------------------------------------

class TestParallelChaos:
    def test_jobs2_campaign_reproduces_serial_and_committed_summary(self):
        committed = json.loads(
            (REPO_ROOT / "BENCH_robustness.json").read_text()
        )
        meta = committed["meta"]
        kwargs = dict(
            seed=meta["seed"], runs=meta["runs_per_algorithm"],
            dims=tuple(meta["dims"]), deadline_us=meta["deadline_us"],
            out_path=None, verbose=False,
        )
        serial = chaos_campaign(jobs=1, **kwargs)
        parallel = chaos_campaign(jobs=2, **kwargs)
        assert parallel["summary"] == serial["summary"]
        assert parallel["runs"] == serial["runs"]
        assert parallel["ladder"] == serial["ladder"]
        assert parallel["recovery_us"] == serial["recovery_us"]
        # ... and both reproduce the committed robustness report.
        assert parallel["summary"] == committed["summary"]


# -- zero-copy comparison helper -----------------------------------------

class TestSameBytes:
    def test_equal_and_unequal_byte_buffers(self):
        a = np.arange(256, dtype=np.uint8)
        assert same_bytes(a, a.copy())
        b = a.copy()
        b[128] ^= 0xFF
        assert not same_bytes(a, b)

    def test_identity_short_circuits(self):
        a = np.zeros(8, dtype=np.float64)
        assert same_bytes(a, a)

    def test_cross_dtype_byte_view(self):
        a = np.array([1.5, -2.0])
        assert same_bytes(a, a.view(np.uint8))
        assert not same_bytes(a, np.array([1.5, 2.0]))

    def test_non_contiguous_fallback(self):
        base = np.arange(16, dtype=np.uint8)
        assert same_bytes(base[::2], np.ascontiguousarray(base[::2]))
        assert not same_bytes(base[::2], base[1::2])

    def test_length_mismatch(self):
        assert not same_bytes(
            np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8)
        )


class TestCopyOnWriteRootBuffer:
    def test_verifying_run_leaves_caller_payload_untouched(self):
        from repro.bench.harness import build_payload, run_collective

        machine = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        payload = build_payload(machine, "bcast", 8192, seed=99)
        pristine = payload.copy()
        run_collective(
            machine, "bcast", "tree-shaddr", 8192,
            verify=True, payload=payload,
        )
        assert same_bytes(payload, pristine)

    def test_payload_without_verify_is_rejected(self):
        from repro.bench.harness import run_collective

        machine = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
        with pytest.raises(ValueError, match="verify"):
            run_collective(
                machine, "bcast", "tree-shaddr", 64,
                payload=np.zeros(64, dtype=np.uint8),
            )
