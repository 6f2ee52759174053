"""Tests for the stage-level telemetry subsystem.

Covers the recorder's role attribution (the paper's core-specialization
split), the bit-identical guarantee (telemetry is purely observational),
run manifests with their regression gates, the report tables, and the
``repro report`` / ``repro trace`` CLI subcommands.
"""

import copy
import json
import pickle

import pytest

from repro.bench import run_collective
from repro.cli import main
from repro.hardware import Machine, Mode
from repro.telemetry import (
    DEFAULT_TOLERANCE,
    RunManifest,
    TelemetryRecorder,
    compare_bench,
    compare_manifests,
    compare_with_baseline_file,
    load_baseline,
    save_baseline,
)
from repro.telemetry.report import format_report as format_telemetry_report


def quad_machine(dims=(2, 2, 2)):
    return Machine(torus_dims=dims, mode=Mode.QUAD)


def recorded_run(family="bcast", algorithm="tree-shaddr", x=256 * 1024,
                 dims=(2, 2, 2), **kwargs):
    machine = quad_machine(dims)
    recorder = machine.attach_telemetry()
    result = run_collective(machine, family, algorithm, x, **kwargs)
    return machine, recorder, result


class TestRoleAttribution:
    """Section V-B's quad-mode broadcast: 'one core ... injects ... a
    second core pulls the packets ... the remaining two cores copy'."""

    def test_tree_bcast_quad_role_split(self):
        machine, recorder, _ = recorded_run()
        rollups = recorder.rollups()
        nnodes = machine.nnodes
        assert rollups["ranks.injector"] == nnodes
        assert rollups["ranks.receiver"] == nnodes
        assert rollups["ranks.copier"] == 2 * nnodes

    def test_tree_bcast_split_holds_per_node(self):
        _, recorder, _ = recorded_run()
        per_node = {}
        for rank, role in recorder.roles.items():
            node = recorder.role_nodes[rank]
            per_node.setdefault(node, []).append(role)
        for node, roles in per_node.items():
            assert sorted(roles) == [
                "copier", "copier", "injector", "receiver",
            ], f"node {node} role split {roles}"

    def test_copiers_move_the_payload(self):
        nbytes = 256 * 1024
        machine, recorder, _ = recorded_run(x=nbytes)
        rollups = recorder.rollups()
        # Each non-root node's two copiers copy the payload out of the
        # receive buffer; rank 2 additionally makes the extra copy.
        assert rollups["bytes_copied.copier"] >= nbytes * (machine.nnodes - 1)
        per_role = sum(
            v for k, v in rollups.items() if k.startswith("bytes_copied.")
        )
        assert rollups["bytes_copied"] == per_role

    def test_allreduce_shaddr_roles(self):
        _, recorder, _ = recorded_run(
            family="allreduce", algorithm="allreduce-torus-shaddr", x=48 * 1024
        )
        rollups = recorder.rollups()
        roles = set(recorder.roles.values())
        assert "protocol-core" in roles
        assert {"reduce-core.c0", "reduce-core.c1", "reduce-core.c2"} <= roles
        assert rollups["ranks.protocol-core"] == 8  # one per node

    def test_stage_summary_names_the_pipeline(self):
        _, recorder, _ = recorded_run()
        stages = recorder.stage_summary()
        for stage in ("tree.inject", "tree.receive", "shaddr.copy-out",
                      "shaddr.extra-copy"):
            assert stage in stages
            assert stages[stage]["bytes"] > 0

    def test_protocol_metrics_recorded(self):
        _, recorder, _ = recorded_run()
        rollups = recorder.rollups()
        assert rollups["counter_advances"] > 0
        assert rollups["counter_polls"] > 0
        assert rollups["window_maps"] > 0
        assert rollups["stall_us.waiting-on-counter"] > 0


class TestBitIdentical:
    """The recorder only observes: enabled and disabled runs must produce
    exactly the same simulated timings (not approximately — exactly)."""

    BCASTS = ["tree-shaddr", "torus-shaddr", "torus-fifo",
              "torus-direct-put", "tree-shmem"]

    @pytest.mark.parametrize("algorithm", BCASTS)
    def test_bcast_elapsed_identical(self, algorithm):
        bare = run_collective(quad_machine(), "bcast", algorithm, 128 * 1024)
        machine = quad_machine()
        machine.attach_telemetry()
        recorded = run_collective(machine, "bcast", algorithm, 128 * 1024)
        assert recorded.elapsed_us == bare.elapsed_us
        assert recorded.iterations_us == bare.iterations_us

    @pytest.mark.parametrize(
        "algorithm", ["allreduce-torus-shaddr", "allreduce-torus-current"]
    )
    def test_allreduce_elapsed_identical(self, algorithm):
        bare = run_collective(
            quad_machine(), "allreduce", algorithm, 24 * 1024
        )
        machine = quad_machine()
        machine.attach_telemetry()
        recorded = run_collective(machine, "allreduce", algorithm, 24 * 1024)
        assert recorded.elapsed_us == bare.elapsed_us

    def test_detach_restores_silence(self):
        machine = quad_machine()
        recorder = machine.attach_telemetry()
        machine.engine.telemetry = None
        run_collective(machine, "bcast", "tree-shaddr", 64 * 1024)
        assert recorder.rollups() == {}


class TestStageContract:
    """The intra-node stages of ``repro.collectives.common`` record the
    same things for every algorithm built on them (2x2x2 QUAD, one
    iteration)."""

    #: (family, algorithm, x, copy-out stage, bytes each peer copies out
    #: of its node's master buffer)
    COUNTER_BROADCASTS = [
        ("bcast", "torus-shaddr", 64 * 1024, "shaddr.copy-out", 65536),
        ("allreduce", "allreduce-torus-shaddr", 2048, "local-bcast", 16384),
        # the seven other nodes' 16 KiB blocks
        ("allgather", "allgather-ring-shaddr", 4096, "shaddr.copy-out",
         114688),
    ]

    #: (family, algorithm, x, ranks that wait for their landed bytes)
    DISTRIBUTORS = [
        ("bcast", "torus-direct-put", 64 * 1024, 32),
        ("allreduce", "allreduce-torus-current", 2048, 32),
        ("allreduce", "allreduce-ring-pipelined", 2048, 32),
        # the root returns as soon as it has staged its chunks
        ("bcast", "ring-pipelined", 64 * 1024, 31),
        ("allgather", "allgather-ring-current", 4096, 32),
    ]

    @pytest.mark.parametrize(
        "family,algorithm,x,stage,nbytes", COUNTER_BROADCASTS,
    )
    def test_every_peer_copies_out_its_masters_bytes(
            self, family, algorithm, x, stage, nbytes):
        machine, recorder, _ = recorded_run(family, algorithm, x)
        copied = {}
        for event in recorder.copy_events:
            rank, event_stage, size = event[2], event[5], event[6]
            if event_stage == stage:
                copied[rank] = copied.get(rank, 0) + size
        peers = [
            rank for rank in range(machine.nprocs)
            if machine.rank_to_local(rank) != 0
        ]
        assert copied == {rank: nbytes for rank in peers}

    @pytest.mark.parametrize("family,algorithm,x,nwaiting", DISTRIBUTORS)
    def test_every_rank_waiting_for_landed_bytes_is_a_dma_wait_core(
            self, family, algorithm, x, nwaiting):
        _, recorder, _ = recorded_run(family, algorithm, x)
        # The landed-bytes counters are the per-rank ones, r<rank>.<name>.
        waiting = {
            int(name[1:].split(".")[0])
            for _ts, name, kind, _value, _extra in recorder.counter_events
            if kind == "poll" and name[0] == "r" and name[1].isdigit()
        }
        tagged = {
            rank for rank, role in recorder.roles.items()
            if role == "dma-wait"
        }
        assert len(waiting) == nwaiting
        assert tagged == waiting


class TestRunManifest:
    def manifest(self, **overrides):
        fields = dict(
            family="bcast", algorithm="tree-shaddr", dims=(2, 2, 2),
            mode="QUAD", ppn=4, nprocs=32, x=262144, nbytes=262144,
            iters=1, seed=1234, verify=False, elapsed_us=500.0,
            bandwidth_mbs=524.3,
            rollups={"counter_polls": 100.0, "bytes_copied": 786432.0},
        )
        fields.update(overrides)
        return RunManifest(**fields)

    def test_attached_by_harness(self):
        _, recorder, result = recorded_run()
        manifest = result.manifest
        assert manifest is not None
        assert manifest.algorithm == "tree-shaddr"
        assert manifest.dims == (2, 2, 2)
        assert manifest.mode == "QUAD"
        assert manifest.elapsed_us == result.elapsed_us
        assert manifest.rollups == recorder.rollups()
        # git_rev is resolved lazily, never inside the timed run.
        assert manifest.git_rev is None
        assert manifest.stamped().git_rev is not None

    def test_no_recorder_empty_rollups(self):
        result = run_collective(
            quad_machine(), "bcast", "tree-shaddr", 64 * 1024
        )
        assert result.manifest.rollups == {}

    def test_spec_key(self):
        assert self.manifest().spec_key == (
            "bcast/tree-shaddr/2x2x2/quad/x262144/i1"
        )

    def test_dict_roundtrip(self):
        m = self.manifest()
        written = m.to_dict()
        # Manifests written while the closed-form fast path existed carry
        # its "analytic" flag; they still load.
        legacy = {**written, "analytic": False}
        for data in (written, legacy):
            clone = RunManifest.from_dict(json.loads(json.dumps(data)))
            assert clone == m

    def test_result_with_manifest_pickles(self):
        _, _, result = recorded_run()
        clone = pickle.loads(pickle.dumps(result))
        assert clone.manifest.spec_key == result.manifest.spec_key
        assert clone.manifest.rollups == result.manifest.rollups


class TestRegressionGate:
    def run_manifest(self):
        _, _, result = recorded_run()
        return result.manifest

    def test_identical_manifests_pass(self):
        m = self.run_manifest()
        assert compare_manifests(m, m) == []

    def test_reproducible_runs_pass(self):
        assert compare_manifests(self.run_manifest(),
                                 self.run_manifest()) == []

    def test_flags_elapsed_drift_beyond_tolerance(self):
        current, baseline = self.run_manifest(), self.run_manifest()
        baseline.elapsed_us *= 1.25
        drifts = compare_manifests(current, baseline)
        assert any("elapsed_us" in line for line in drifts)

    def test_tolerates_drift_within_band(self):
        current, baseline = self.run_manifest(), self.run_manifest()
        baseline.elapsed_us *= 1.0 + DEFAULT_TOLERANCE / 2
        drifts = compare_manifests(current, baseline)
        assert not any("elapsed_us" in line for line in drifts)

    def test_flags_rollup_drift(self):
        current, baseline = self.run_manifest(), self.run_manifest()
        baseline.rollups["counter_polls"] *= 2
        drifts = compare_manifests(current, baseline)
        assert any("counter_polls" in line for line in drifts)

    def test_flags_identity_mismatch(self):
        current, baseline = self.run_manifest(), self.run_manifest()
        baseline.algorithm = "torus-shaddr"
        drifts = compare_manifests(current, baseline)
        assert drifts and "algorithm" in drifts[0]

    def test_flags_missing_and_new_metrics(self):
        current, baseline = self.run_manifest(), self.run_manifest()
        gone = next(iter(baseline.rollups))
        del current.rollups[gone]
        current.rollups["brand_new"] = 1.0
        drifts = "\n".join(compare_manifests(current, baseline))
        assert "missing now" in drifts
        assert "absent from baseline" in drifts

    def test_baseline_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        m = self.run_manifest()
        save_baseline(path, [m])
        document = load_baseline(path)
        assert m.spec_key in document["manifests"]
        assert compare_with_baseline_file(m, path) == []

    def test_baseline_file_missing_key(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        save_baseline(path, [])
        drifts = compare_with_baseline_file(self.run_manifest(), path)
        assert drifts and "no baseline" in drifts[0]


class TestBenchGate:
    def bench(self):
        point = {"x": 1024, "wall_s": 0.1, "elapsed_us": 100.0}
        entry = {
            "smoke": True,
            "sweeps": {"bcast": {"points": [dict(point)]}},
        }
        return {
            "suite": "core",
            "entries": {
                "base": copy.deepcopy(entry),
                "new": copy.deepcopy(entry),
            },
        }

    def test_identical_entries_pass(self):
        assert compare_bench(self.bench(), "base", "new") == []

    def test_wall_clock_never_gated(self):
        bench = self.bench()
        bench["entries"]["new"]["sweeps"]["bcast"]["points"][0]["wall_s"] = 99
        assert compare_bench(bench, "base", "new") == []

    def test_simulated_us_gated(self):
        bench = self.bench()
        point = bench["entries"]["new"]["sweeps"]["bcast"]["points"][0]
        point["elapsed_us"] = 150.0
        drifts = compare_bench(bench, "base", "new")
        assert drifts and "elapsed_us" in drifts[0]

    def test_smoke_full_mismatch_refused(self):
        bench = self.bench()
        bench["entries"]["new"]["smoke"] = False
        drifts = compare_bench(bench, "base", "new")
        assert drifts and "not comparable" in drifts[0]

    def test_missing_label_reported(self):
        drifts = compare_bench(self.bench(), "base", "nonexistent")
        assert drifts and "missing" in drifts[0]


class TestReportRendering:
    def test_report_tables(self):
        _, recorder, result = recorded_run()
        text = format_telemetry_report(result.manifest.stamped(), recorder)
        assert "per-role breakdown" in text
        assert "injector" in text and "receiver" in text and "copier" in text
        assert "shaddr.copy-out" in text
        assert "counter polls" in text
        assert result.manifest.spec_key in text

    def test_empty_recorder_renders(self):
        manifest = RunManifest(
            family="bcast", algorithm="x", dims=(1, 1, 1), mode="SMP",
            ppn=1, nprocs=1, x=0, nbytes=0, iters=1, seed=0, verify=False,
            elapsed_us=0.0, bandwidth_mbs=0.0,
        )
        text = format_telemetry_report(manifest, TelemetryRecorder())
        assert "no role activity" in text
        assert "no protocol activity" in text


class TestCli:
    ARGS = ["--family", "bcast", "--algorithm", "tree-shaddr",
            "--size", "128K", "--dims", "2x2x2"]

    def test_report_smoke(self, capsys):
        assert main(["report"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "per-role breakdown" in out
        assert "injector" in out
        assert "protocol metrics" in out

    def test_report_gate_roundtrip(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main(
            ["report"] + self.ARGS + ["--write-baseline", baseline]
        ) == 0
        assert main(["report"] + self.ARGS + ["--compare", baseline]) == 0
        assert "manifest gate OK" in capsys.readouterr().out

    def test_report_gate_flags_drift(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main(
            ["report"] + self.ARGS + ["--write-baseline", baseline]
        ) == 0
        document = json.loads((tmp_path / "baseline.json").read_text())
        key = next(iter(document["manifests"]))
        document["manifests"][key]["elapsed_us"] *= 1.5
        (tmp_path / "baseline.json").write_text(json.dumps(document))
        assert main(["report"] + self.ARGS + ["--compare", baseline]) == 1
        assert "manifest gate FAILED" in capsys.readouterr().out

    def test_check_bench_requires_labels(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"entries": {}}))
        assert main(["report", "--check-bench", str(bench)]) == 2

    def test_trace_smoke(self, tmp_path, capsys):
        out_path = str(tmp_path / "trace.json")
        assert main(["trace"] + self.ARGS + ["--out", out_path]) == 0
        document = json.loads((tmp_path / "trace.json").read_text())
        pids = {e["pid"] for e in document["traceEvents"]}
        assert {1, 2, 3} <= pids  # flows, core roles, counters
        labels = [
            e["args"]["name"] for e in document["traceEvents"]
            if e.get("name") == "thread_name" and e["pid"] == 2
        ]
        assert any("injector" in label for label in labels)

    def test_trace_no_telemetry(self, tmp_path, capsys):
        out_path = str(tmp_path / "trace.json")
        args = ["trace"] + self.ARGS + ["--out", out_path, "--no-telemetry"]
        assert main(args) == 0
        document = json.loads((tmp_path / "trace.json").read_text())
        assert {e["pid"] for e in document["traceEvents"]} == {1}
