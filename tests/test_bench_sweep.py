"""Tests for the JSON-config sweep runner and its CLI command."""

import json

import pytest

from repro.bench.sweep import SweepResult, run_sweep, run_sweep_file
from repro.cli import main


def small_config(**overrides):
    config = {
        "name": "test-sweep",
        "kind": "bcast",
        "algorithms": ["torus-shaddr", "torus-direct-put"],
        "sizes": ["16K", "64K"],
        "machine": {"dims": [2, 1, 1], "mode": "quad"},
        "iters": 1,
    }
    config.update(overrides)
    return config


class TestRunSweep:
    def test_grid_shape(self):
        result = run_sweep(small_config())
        assert result.x_values == [16 * 1024, 64 * 1024]
        assert set(result.bandwidth) == {
            "torus-shaddr", "torus-direct-put"
        }
        for values in result.bandwidth.values():
            assert len(values) == 2
            assert all(v > 0 for v in values)

    def test_allreduce_kind_uses_counts(self):
        result = run_sweep(
            small_config(
                kind="allreduce",
                algorithms=["allreduce-torus-shaddr"],
                sizes=["4K", "16K"],
            )
        )
        assert result.x_values == [4096, 16384]
        assert "16384" in result.table()

    def test_mesh_machine(self):
        result = run_sweep(
            small_config(machine={"dims": [2, 2, 1], "mode": "quad",
                                  "wrap": False})
        )
        assert result.bandwidth["torus-shaddr"][0] > 0

    def test_table_renders(self):
        result = run_sweep(small_config())
        text = result.table()
        assert "torus-shaddr" in text and "16K" in text
        bandwidth_table = result.table("bandwidth")
        elapsed_table = result.table("elapsed_us")
        assert bandwidth_table != elapsed_table

    def test_json_roundtrip(self):
        result = run_sweep(small_config())
        clone = SweepResult(**json.loads(result.to_json()))
        assert clone.bandwidth == result.bandwidth
        assert clone.x_values == result.x_values

    def test_missing_keys_rejected(self):
        with pytest.raises(KeyError):
            run_sweep({"kind": "bcast"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            run_sweep(small_config(kind="alltoall"))

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(small_config(sizes=[]))


class TestSweepCli:
    def test_cli_runs_and_saves(self, tmp_path, capsys):
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(small_config(sizes=["8K"])))
        out_path = tmp_path / "out.json"
        code = main(["sweep", str(config_path), "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "test-sweep" in out
        saved = json.loads(out_path.read_text())
        assert saved["kind"] == "bcast"

    def test_cli_file_roundtrip_helper(self, tmp_path):
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(small_config(sizes=["8K"])))
        result = run_sweep_file(str(config_path))
        assert result.x_values == [8192]

    def test_pingpong_cli(self, capsys):
        code = main(["pingpong", "--size", "256", "--dims", "4x1x1"])
        assert code == 0
        assert "pingpong[eager]" in capsys.readouterr().out
