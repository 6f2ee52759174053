"""Smoke tests for the example scripts (the fast ones run end-to-end)."""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_color_routes(self):
        out = run_example("color_routes.py", "2", "2", "2")
        assert "color 0" in out
        assert "color 5" in out
        assert "R" in out

    def test_fifo_threads(self):
        out = run_example("fifo_threads.py")
        assert "bit-exactly" in out

    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "torus-shaddr" in out
        assert "allreduce-torus-current" in out
        assert "tree-shmem" in out

    def test_bottleneck_profile(self):
        out = run_example("bottleneck_profile.py")
        assert "bottleneck" in out
        assert "measured" in out
        assert "utilization" in out

    def test_all_examples_exist_and_have_docstrings(self):
        scripts = sorted(EXAMPLES.glob("*.py"))
        assert len(scripts) >= 5
        for script in scripts:
            text = script.read_text()
            assert text.startswith("#!/usr/bin/env python3"), script.name
            assert '"""' in text, script.name
