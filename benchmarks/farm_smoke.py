"""Farm smoke scenario: worker SIGKILL + server restart, bytes preserved.

The end-to-end robustness drill behind CI's ``farm-smoke`` job (and a
handy local sanity check).  The script:

1. runs the seeded chaos smoke campaign **serially** — the reference
   bytes;
2. starts a farm server (short leases) and two pull-worker
   subprocesses, then drives the *same* campaign through
   ``repro chaos --farm``;
3. **SIGKILLs one worker** once it holds a lease (its chunk's lease
   expires and is recomputed by the survivor);
4. **SIGKILLs the server** mid-campaign and restarts it with
   ``--resume`` (journaled points are never re-run);
5. asserts the farm-merged ``BENCH_robustness.json`` campaign report is
   **byte-identical** to the serial one, that the farm counted exactly
   one lost worker and one resume, then records the robustness rollups
   as a ``farm-smoke`` bench entry (metrics snapshot included) and
   gates it against itself with ``repro report --check-bench
   --tolerance 0`` (shape/solver-tag sanity; the metrics key must be
   gate-invisible); then stops the resumed server and starts a third
   ``--resume`` server on the finished journal, which must replay the
   same coverage, the same campaign-lifetime counters (one more resume)
   and the same ``merge_digest``.

Run it from the repo root::

    python benchmarks/farm_smoke.py [--port 8799] [--keep-dir]

Exit status 0 means every assertion held.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.farm import rpc, rpc_retry  # noqa: E402


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return env


def _spawn(args, **kwargs):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=_env(), cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, **kwargs
    )


def _run(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(), cwd=REPO_ROOT, check=True, **kwargs
    )


def _wait_for_server(address, deadline_s=20.0):
    start = time.monotonic()
    while True:
        try:
            return rpc(address, "status")
        except (ConnectionError, OSError):
            if time.monotonic() - start > deadline_s:
                raise
            time.sleep(0.2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=8799)
    parser.add_argument("--keep-dir", action="store_true",
                        help="leave the scratch directory behind")
    args = parser.parse_args(argv)
    address = f"127.0.0.1:{args.port}"
    scratch = tempfile.mkdtemp(prefix="farm_smoke_")
    journal = os.path.join(scratch, "journal.jsonl")
    serial_out = os.path.join(scratch, "serial.json")
    farm_out = os.path.join(scratch, "farm.json")
    procs = []

    def serve(resume=False):
        cmd = ["farm", "serve", "--host", "127.0.0.1",
               "--port", str(args.port), "--journal", journal,
               "--lease-s", "3", "--chunk", "1", "--quiet"]
        if resume:
            cmd.append("--resume")
        proc = _spawn(cmd)
        procs.append(proc)
        return proc

    def work(worker_id):
        proc = _spawn(["farm", "work", address, "--id", worker_id,
                       "--stay", "--quiet"])
        procs.append(proc)
        return proc

    try:
        print("[1/5] serial reference campaign ...")
        _run(["chaos", "--smoke", "--seed", "0", "--out", serial_out],
             stdout=subprocess.DEVNULL)

        print("[2/5] farm campaign: server + 2 workers ...")
        server = serve()
        _wait_for_server(address)
        victim = work("victim")
        work("survivor")
        driver = subprocess.Popen(
            [sys.executable, "-m", "repro", "chaos", "--smoke",
             "--seed", "0", "--out", farm_out, "--farm", address],
            env=_env(), cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        procs.append(driver)

        print("[3/5] SIGKILL a worker holding a lease ...")
        # Freeze-then-kill so the kill provably lands mid-chunk: SIGSTOP
        # is instantaneous, so if the victim still holds its lease after
        # a beat of being frozen, no completion can be in flight and the
        # lease is guaranteed to expire.
        def _victim_leased():
            status = rpc_retry(address, "status")
            return any(lease["worker"] == "victim"
                       for lease in status["leased"].values()), status

        deadline = time.monotonic() + 60.0
        victim_frozen_mid_chunk = False
        while not victim_frozen_mid_chunk:
            held, status = _victim_leased()
            if held:
                victim.send_signal(signal.SIGSTOP)
                time.sleep(0.2)
                held, status = _victim_leased()
                if held:
                    victim_frozen_mid_chunk = True
                    break
                victim.send_signal(signal.SIGCONT)
            assert not status["done"] and time.monotonic() < deadline, (
                "never froze the victim mid-chunk: " + repr(status))
            time.sleep(0.02)
        victim.send_signal(signal.SIGKILL)
        victim.wait()

        # Wait for the server to notice (and journal) the abandoned
        # lease — the expiry record is what lets workers_lost survive
        # the server kill below.
        deadline = time.monotonic() + 60.0
        while True:
            status = rpc_retry(address, "status")
            if status["stats"]["workers_lost"] >= 1:
                break
            assert time.monotonic() < deadline, (
                "lease expiry never observed: " + repr(status["stats"]))
            time.sleep(0.1)

        print("[4/5] SIGKILL the server mid-campaign; resume ...")
        deadline = time.monotonic() + 120.0
        while True:
            status = rpc_retry(address, "status")
            if status["completed"] >= 3 or status["done"]:
                break
            assert time.monotonic() < deadline, "no campaign progress"
            time.sleep(0.1)
        pre_kill_completed = status["completed"]
        server.send_signal(signal.SIGKILL)
        server.wait()
        time.sleep(1.0)
        resumed = serve(resume=True)
        status = _wait_for_server(address, deadline_s=30.0)
        assert status["stats"]["resumes"] == 1, status["stats"]
        assert status["completed"] >= min(pre_kill_completed,
                                          status["total"]), status

        returncode = driver.wait(timeout=600)
        assert returncode == 0, f"farm chaos driver exited {returncode}"

        print("[5/5] byte-identity + robustness rollups ...")
        with open(serial_out, "rb") as handle:
            serial_bytes = handle.read()
        with open(farm_out, "rb") as handle:
            farm_bytes = handle.read()
        assert farm_bytes == serial_bytes, (
            "farm campaign report is NOT byte-identical to serial "
            f"({serial_out} vs {farm_out})"
        )
        status = rpc_retry(address, "status")
        stats = status["stats"]
        assert status["done"], status
        assert stats["workers_lost"] >= 1, stats
        assert stats["leases_expired"] >= 1, stats
        assert stats["resumes"] == 1, stats
        assert stats["chunks_quarantined"] == 0, stats
        assert stats["digest_mismatches"] == 0, stats

        _run(["farm", "status", address, "--bench", farm_out,
              "--label", "farm-smoke"], stdout=subprocess.DEVNULL)
        _run(["farm", "status", address, "--bench", farm_out,
              "--label", "farm-smoke-replay"], stdout=subprocess.DEVNULL)
        # Two recordings of one settled campaign must agree *exactly* —
        # the metrics snapshot riding in the entry is gate-invisible
        # (the gate reads only smoke/solver/sweeps).
        _run(["report", "--check-bench", farm_out,
              "--base", "farm-smoke", "--new", "farm-smoke-replay",
              "--tolerance", "0"])
        # The entry rode along INSIDE the campaign report without
        # disturbing the campaign bytes themselves.
        with open(farm_out) as handle:
            merged = json.load(handle)
        assert merged["summary"] == json.loads(serial_bytes)["summary"]
        assert "farm-smoke" in merged["entries"]
        assert "metrics" in merged["entries"]["farm-smoke"], (
            "farm status --bench did not capture the metrics snapshot"
        )

        # Gate this drill's deterministic rollups against the committed
        # baseline: the drill always loses exactly one worker, resumes
        # exactly once, quarantines nothing, and completes every point.
        bench_path = os.path.join(REPO_ROOT, "BENCH_robustness.json")
        with open(bench_path) as handle:
            baseline = json.load(handle).get("entries", {}).get(
                "farm-robustness")
        if baseline is not None:
            merged["entries"]["farm-robustness"] = baseline
            with open(farm_out, "w") as handle:
                json.dump(merged, handle, indent=2, sort_keys=True)
            _run(["report", "--check-bench", farm_out,
                  "--base", "farm-robustness", "--new", "farm-smoke"])
        # Replay end to end: a third server resumed on the finished
        # journal rebuilds exactly what the live one reported.
        live = rpc_retry(address, "status")
        live_fetch = rpc_retry(address, "fetch")
        resumed.send_signal(signal.SIGINT)  # `farm serve` stops cleanly
        assert resumed.wait(timeout=30) == 0, "resumed server did not stop"
        serve(resume=True)
        replayed = _wait_for_server(address, deadline_s=30.0)
        replayed_fetch = rpc_retry(address, "fetch")
        for key in ("completed", "quarantined"):
            assert replayed[key] == live[key], (key, live, replayed)
        for key in ("points_completed", "leases_expired", "workers_lost",
                    "chunks_quarantined"):
            assert replayed["stats"][key] == live["stats"][key], (
                key, live["stats"], replayed["stats"])
        assert replayed["stats"]["resumes"] == live["stats"]["resumes"] + 1, (
            live["stats"], replayed["stats"])
        assert replayed_fetch["merge_digest"] == live_fetch["merge_digest"]

        print("farm smoke OK: byte-identical merge, "
              f"{stats['workers_lost']} worker lost, "
              f"{stats['leases_expired']} lease(s) expired, "
              f"{stats['resumes']} resume, replay matches live")
        return 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if args.keep_dir:
            print(f"scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
