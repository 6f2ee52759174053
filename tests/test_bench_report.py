"""Unit tests for the benchmark reporting helpers and harness plumbing."""

import json

import pytest

from repro.bench import Series, format_table, run_collective, speedup
from repro.bench.experiments import ExperimentResult
from repro.hardware import Machine, Mode


class TestSeriesAndTable:
    def test_table_layout(self):
        series = [Series("A", [1.0, 2.0]), Series("B", [3.5, 4.25])]
        text = format_table("size", [1024, 2048], series)
        lines = text.splitlines()
        assert lines[0].split() == ["size", "A", "B"]
        assert lines[2].split() == ["1K", "1.0", "3.5"]
        assert lines[3].split() == ["2K", "2.0", "4.2"]

    def test_count_format(self):
        series = [Series("A", [1.0])]
        text = format_table("n", [16384], series, x_format="count")
        assert "16384" in text

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table("x", [1, 2], [Series("A", [1.0])])

    def test_speedup(self):
        assert speedup([2.0, 9.0], [1.0, 3.0]) == [2.0, 3.0]
        with pytest.raises(ValueError):
            speedup([1.0], [1.0, 2.0])

    def test_series_add(self):
        s = Series("x")
        s.add(1.0)
        s.add(2.0)
        assert s.values == [1.0, 2.0]


class TestExperimentResult:
    def _result(self):
        return ExperimentResult(
            "demo", "size", [1024], [Series("A", [5.0])], {"m": 1.5}
        )

    def test_series_lookup(self):
        r = self._result()
        assert r.series_by_label("A").values == [5.0]
        with pytest.raises(KeyError):
            r.series_by_label("B")

    def test_table_renders(self):
        assert "demo" not in self._result().table()  # table has no title
        assert "1K" in self._result().table()


class TestHarness:
    def test_determinism(self):
        """Identical configurations produce identical simulated times."""
        results = []
        for _ in range(2):
            m = Machine(torus_dims=(2, 2, 1), mode=Mode.QUAD)
            results.append(
                run_collective(m, "bcast", "torus-shaddr", 100_000, iters=2)
            )
        assert results[0].iterations_us == results[1].iterations_us

    def test_iterations_recorded(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        r = run_collective(m, "bcast", "torus-fifo", 10_000, iters=3)
        assert len(r.iterations_us) == 3
        assert r.elapsed_us == pytest.approx(
            sum(r.iterations_us) / 3
        )

    def test_result_str_contains_algorithm(self):
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        r = run_collective(m, "bcast", "torus-shaddr", 1000)
        assert "torus-shaddr" in str(r)
        assert r.bandwidth_mbs > 0

    def test_machine_reuse_across_measurements(self):
        """One machine object supports repeated independent measurements."""
        m = Machine(torus_dims=(2, 1, 1), mode=Mode.QUAD)
        r1 = run_collective(m, "bcast", "torus-shaddr", 50_000)
        r2 = run_collective(m, "bcast", "torus-shaddr", 50_000)
        assert r1.elapsed_us == pytest.approx(r2.elapsed_us, rel=1e-9)


class TestPerfsuiteMain:
    def test_main_prints_no_comparison_of_other_entries(
            self, tmp_path, monkeypatch, capsys):
        """Regression: ``main`` printed a speedup table of the file's
        ``baseline`` and ``current`` entries whatever label it wrote."""
        from repro.bench import perfsuite

        path = tmp_path / "BENCH.json"
        old = {"smoke": True, "wall_s": 30.0, "sweeps": {
            "tree_bcast": {"points": [], "wall_s": 28.34}}}
        new = {**old, "sweeps": {"tree_bcast": {"points": [], "wall_s": 7.69}}}
        path.write_text(json.dumps(
            {"entries": {"baseline": old, "current": new}}))
        monkeypatch.setattr(perfsuite, "run_suite", lambda **kwargs: {
            "tree_bcast": {"points": [], "wall_s": 1.25,
                           "solver": "incremental"},
            "__meta__": {"recorded_at": "now", "jobs": 1, "cpus": 1,
                         "wall_s": 1.5},
        })
        assert perfsuite.main(
            ["--smoke", "--label", "fresh", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "28.34" not in out and "7.69" not in out
        assert "speedup" not in out
        assert "wrote entry 'fresh'" in out
        entries = json.loads(path.read_text())["entries"]
        assert sorted(entries) == ["baseline", "current", "fresh"]
