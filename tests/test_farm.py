"""The fault-tolerant distributed sweep farm (``repro.bench.farm``).

The invariants under test mirror ``docs/robustness.md``:

* **byte-identical merge** — a campaign fanned across farm workers
  merges to exactly the local executor's output, simulation results
  included;
* **leases, retries, quarantine** — an abandoned lease expires and its
  chunk is re-queued under the bounded-backoff retry budget; a chunk
  that keeps failing is quarantined instead of wedging the campaign;
  duplicate completions are detected and discarded;
* **crash-resumable campaigns** — the fsynced journal survives server
  kills (including torn trailing writes), ``resume`` never re-runs a
  journaled point, and a seeded storm of worker kills / duplicates /
  journal truncation still converges to the serial answer.

Everything runs in-process: the server listens on an ephemeral local
port and the workers are threads, so "killing" a worker is abandoning
its lease and "killing" the server is stopping it mid-campaign.
"""

import base64
import hashlib
import json
import os
import pickle
import random
import threading
import time
from contextlib import contextmanager

import pytest

from repro.bench.farm import (
    FarmError,
    FarmServer,
    FarmUnreachableError,
    FarmWorker,
    farm_execute_points,
    farm_rollups,
    parse_address,
    record_farm_bench_entry,
    register_task,
    resolve_task,
    rpc,
    rpc_retry,
    task_name,
)
from repro.bench.parallel import WorkerPointError, execute_points
from repro.hardware.fault_schedule import RetryPolicy
from repro.telemetry.manifest import CampaignManifest, spec_fingerprint
from repro.telemetry.runtime import mint_trace
from repro.util.records import RecordLog, pack, unpack

#: near-zero backoffs so retry paths run at test speed
FAST_RETRY = RetryPolicy(max_attempts=3, base_backoff_us=1e3,
                         backoff_factor=2.0, max_backoff_us=1e4)
FAST_RECONNECT = RetryPolicy(max_attempts=2, base_backoff_us=1e3,
                             backoff_factor=2.0, max_backoff_us=1e4)


# -- farm tasks (registered in-process; workers here are threads) --------

_RUN_LOG = []


def _square(spec):
    return spec["x"] ** 2


def _square_logged(spec):
    _RUN_LOG.append(spec["x"])
    return spec["x"] ** 2


def _always_fails(spec):
    raise ValueError(f"poison point {spec['x']}")


def _fails_on_seven(spec):
    if spec["x"] == 7:
        raise ValueError("unlucky point 7")
    return spec["x"] ** 2


#: calls of :func:`_tripwire`; a doctored journal must never add one
_TRIPPED = []


def _tripwire(*args):
    _TRIPPED.append(args)


class _Doctored:
    """Pickles as a call of ``_tripwire``: a payload that runs code."""

    def __reduce__(self):
        return (_tripwire, ("doctored",))


register_task("square", _square)
register_task("square_logged", _square_logged)
register_task("always_fails", _always_fails)
register_task("fails_on_seven", _fails_on_seven)


def _specs(n):
    return [{"x": x} for x in range(n)]


def _server(tmp_path, **kwargs):
    kwargs.setdefault("journal_path", str(tmp_path / "journal.jsonl"))
    kwargs.setdefault("chunk_retry", FAST_RETRY)
    server = FarmServer(port=0, **kwargs)
    server.start()
    return server


@contextmanager
def _workers(address, *worker_ids):
    """Pull-workers on threads for the body of a ``with``, joined at its
    end.  Each exits on its first lease after the campaign is done; one
    still polling when its server stops would fail to reach it."""
    threads = []
    for worker_id in worker_ids:
        worker = FarmWorker(address, worker_id=worker_id,
                            reconnect=FAST_RECONNECT)
        threads.append(threading.Thread(target=worker.run, daemon=True))
        threads[-1].start()
    yield
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()


def _submit(server, specs, task="square", chunk_size=1):
    manifest = CampaignManifest.build(task, specs)
    return rpc(server.address, "submit", manifest=manifest.to_dict(),
               specs=specs, task=task, chunk_size=chunk_size)


def _point(index, value):
    """The journal record of a completed point."""
    return {"kind": "point", "index": index,
            **pack(pickle.dumps(value, protocol=4))}


def _write_journal(path, specs, *records, chunk=1):
    """A journal holding ``specs``' campaign header, then ``records``."""
    header = {"kind": "campaign", "task": "square", "chunk": chunk,
              "manifest": CampaignManifest.build("square", specs).to_dict(),
              "specs": specs, "trace": None}
    with open(path, "w") as handle:
        for record in (header, *records):
            handle.write(json.dumps(record) + "\n")


def _replay(path):
    """Read a journal without side effects: the kinds of its trusted
    records, their point indices (digests checked), whether anything
    follows them, and their length in bytes."""
    kinds, points = [], []

    def collect(record):
        if record["kind"] == "point":
            unpack(record)
            points.append(record["index"])
        kinds.append(record["kind"])

    valid_bytes, torn = RecordLog(path).replay(collect)
    return kinds, points, torn, valid_bytes


# -- protocol plumbing ---------------------------------------------------

class TestPlumbing:
    def test_parse_address(self):
        assert parse_address("10.0.0.5:9000") == ("10.0.0.5", 9000)
        assert parse_address(":9000") == ("127.0.0.1", 9000)
        assert parse_address("9000") == ("127.0.0.1", 9000)
        with pytest.raises(FarmError, match="host:port"):
            parse_address("nonsense")

    def test_task_registry_round_trip(self):
        assert resolve_task("square") is _square
        assert task_name(_square) == "square"
        assert resolve_task("run_point").__name__ == "run_point"
        with pytest.raises(FarmError, match="unknown farm task"):
            resolve_task("rm_rf_slash")
        with pytest.raises(FarmError, match="not farm-registered"):
            task_name(lambda spec: spec)

    def test_unknown_op_and_unknown_task_are_refused(self, tmp_path):
        with _server(tmp_path) as server:
            with pytest.raises(FarmError, match="unknown op"):
                rpc(server.address, "exec_shell")
            manifest = CampaignManifest.build("nope", [])
            with pytest.raises(FarmError, match="unknown farm task"):
                rpc(server.address, "submit", manifest=manifest.to_dict(),
                    specs=[], task="nope", chunk_size=1)

    def test_rpc_retry_exhausts_into_unreachable(self):
        with pytest.raises(FarmUnreachableError, match="unreachable"):
            rpc_retry("127.0.0.1:9", "status", policy=FAST_RECONNECT)

    def test_stop_returns_promptly(self, tmp_path):
        """Closing the listener alone leaves the accept thread blocked;
        stop() must wake it rather than wait out its join timeout."""
        server = _server(tmp_path)
        start = time.monotonic()
        server.stop()
        assert time.monotonic() - start < 1.0
        with pytest.raises(FarmUnreachableError):
            rpc_retry(server.address, "status", policy=FAST_RECONNECT)


# -- campaign manifests --------------------------------------------------

class TestCampaignManifest:
    def test_fingerprint_is_stable_and_spec_sensitive(self):
        specs = [{"x": 1, "dims": (2, 2, 2)}, {"x": 2, "dims": (2, 2, 2)}]
        again = [{"dims": (2, 2, 2), "x": 1}, {"dims": (2, 2, 2), "x": 2}]
        assert spec_fingerprint("square", specs) == \
            spec_fingerprint("square", again)  # key order is canonical
        assert spec_fingerprint("square", specs) != \
            spec_fingerprint("square", specs[::-1])  # order is identity
        assert spec_fingerprint("square", specs) != \
            spec_fingerprint("cube", specs)  # task is identity

    def test_round_trip(self):
        manifest = CampaignManifest.build("square", _specs(3))
        clone = CampaignManifest.from_dict(manifest.to_dict())
        assert clone == manifest
        assert manifest.nspecs == 3

    def test_server_refuses_a_second_campaign(self, tmp_path):
        with _server(tmp_path) as server:
            first = _submit(server, _specs(4))
            assert first == {"campaign": first["campaign"],
                             "attached": False, "total": 4, "completed": 0}
            # Same campaign attaches idempotently ...
            assert _submit(server, _specs(4))["attached"] is True
            # ... a different one is refused (one campaign per journal).
            with pytest.raises(FarmError, match="refuse to mix"):
                _submit(server, _specs(5))

    def test_a_submit_that_raises_installs_and_journals_nothing(
            self, tmp_path):
        """A record is applied before it is appended, and applying one
        changes nothing until it can no longer raise: a refused submit
        leaves the server free for the next one."""
        with _server(tmp_path) as server:
            with pytest.raises(FarmError, match="chunk_size"):
                _submit(server, _specs(2), chunk_size=-1)
            assert rpc(server.address, "status")["campaign"] is None
            assert not os.path.exists(server.journal_path)
            assert _submit(server, _specs(2))["attached"] is False
        assert _replay(server.journal_path)[0] == ["campaign"]


# -- the happy path ------------------------------------------------------

class TestFarmExecution:
    def test_two_workers_merge_identical_to_local(self, tmp_path):
        specs = _specs(11)
        with _server(tmp_path, chunk_size=2) as server:
            with _workers(server.address, "w0", "w1"):
                out = farm_execute_points(specs, farm=server.address,
                                          task=_square, poll_s=0.05)
            status = rpc(server.address, "status")
        assert out == execute_points(specs, jobs=1, task=_square)
        assert status["done"] is True
        assert status["stats"]["points_completed"] == 11
        assert status["stats"]["workers_lost"] == 0

    def test_simulation_points_are_byte_identical_to_serial(self, tmp_path):
        specs = [
            {"family": "bcast", "algorithm": "tree-shaddr", "x": x,
             "dims": (2, 2, 1), "mode": "QUAD", "iters": 1}
            for x in (2048, 4096, 8192)
        ]
        serial = execute_points(specs, jobs=1)
        with _server(tmp_path, chunk_size=1) as server:
            with _workers(server.address, "sim"):
                farmed = farm_execute_points(specs, farm=server.address,
                                             poll_s=0.05)
        for mine, theirs in zip(farmed, serial):
            assert pickle.dumps(mine, protocol=4) == \
                pickle.dumps(theirs, protocol=4)

    def test_env_routing_reaches_the_farm(self, tmp_path, monkeypatch):
        specs = _specs(4)
        with _server(tmp_path, chunk_size=2) as server:
            with _workers(server.address, "env"):
                monkeypatch.setenv("REPRO_FARM", server.address)
                out = execute_points(specs, task=_square)
        assert out == [0, 1, 4, 9]

    def test_a_failed_point_raises_after_the_others_complete(
            self, tmp_path):
        with _server(tmp_path, chunk_size=1) as server:
            with _workers(server.address, "w"):
                with pytest.raises(WorkerPointError) as excinfo:
                    farm_execute_points(
                        _specs(9), farm=server.address,
                        task=_fails_on_seven, poll_s=0.05,
                    )
            status = rpc(server.address, "status")
        assert excinfo.value.index == 7
        assert "unlucky point 7" in excinfo.value.worker_traceback
        assert (status["completed"], status["quarantined"]) == (8, 1)

    def test_on_error_raise_reruns_serially_with_worker_traceback(
            self, tmp_path):
        with _server(tmp_path, chunk_size=1) as server:
            with _workers(server.address, "w"):
                with pytest.raises(WorkerPointError) as excinfo:
                    farm_execute_points(
                        [{"x": 7}, {"x": 2}], farm=server.address,
                        task=_fails_on_seven, poll_s=0.05,
                    )
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "unlucky point 7" in excinfo.value.worker_traceback


# -- leases, retries, quarantine -----------------------------------------

class TestLeases:
    def test_registry_counts_leases_without_a_scrape(self, tmp_path):
        with _server(tmp_path) as server:
            _submit(server, _specs(2))
            assert "chunk" in rpc(server.address, "lease", worker="w")
            # No status or metrics op ran: the count is already current
            # in the registry, the one store `farm status` reads.
            assert server.registry.counter(
                "farm_leases_issued_total").value() == 1
            stats = rpc(server.address, "status")["stats"]
        assert list(stats) == [
            "leases_issued", "leases_expired", "heartbeats",
            "chunks_completed", "chunks_retried", "chunks_quarantined",
            "points_completed", "duplicate_completions",
            "digest_mismatches", "workers_lost", "resumes", "torn_records",
        ]
        assert stats["leases_issued"] == 1
        assert all(type(count) is int for count in stats.values())

    def test_expired_lease_is_requeued_and_worker_counted_lost(
            self, tmp_path):
        with _server(tmp_path, lease_s=0.15, chunk_size=4) as server:
            _submit(server, _specs(4), chunk_size=4)
            grant = rpc(server.address, "lease", worker="doomed")
            assert grant["chunk"] == 0 and len(grant["points"]) == 4
            # Abandon the lease; the next lease request reaps it and
            # (after the backoff) re-grants the same chunk.
            deadline = time.monotonic() + 10.0
            while True:
                regrant = rpc(server.address, "lease", worker="heir")
                if "chunk" in regrant:
                    break
                assert time.monotonic() < deadline
                time.sleep(min(regrant["wait"], 0.05))
            assert regrant["chunk"] == 0
            status = rpc(server.address, "status")
        assert status["stats"]["leases_expired"] == 1
        assert status["stats"]["chunks_retried"] == 1
        assert status["stats"]["workers_lost"] == 1
        assert status["leased"][0]["worker"] == "heir"

    def test_heartbeat_keeps_a_lease_alive(self, tmp_path):
        with _server(tmp_path, lease_s=0.3, chunk_size=2) as server:
            _submit(server, _specs(2), chunk_size=2)
            grant = rpc(server.address, "lease", worker="beater")
            for _ in range(4):
                time.sleep(0.15)
                beat = rpc(server.address, "heartbeat", worker="beater",
                           chunk=grant["chunk"])
                assert beat["ok"] is True
            status = rpc(server.address, "status")
            assert status["stats"]["leases_expired"] == 0
            # A stale heartbeat (wrong worker) is refused.
            assert rpc(server.address, "heartbeat", worker="imposter",
                       chunk=grant["chunk"])["ok"] is False

    def test_poison_chunk_is_quarantined_after_retry_budget(self, tmp_path):
        with _server(tmp_path, chunk_size=1) as server:
            with _workers(server.address, "w"):
                with pytest.raises(WorkerPointError, match="poison point"):
                    farm_execute_points(
                        [{"x": 1}, {"x": 2}], farm=server.address,
                        task=_always_fails, poll_s=0.05,
                    )
            status = rpc(server.address, "status")
            payload = rpc(server.address, "fetch")
        assert [(state, "poison point" in value)
                for _, state, value in payload["results"]] == \
            [("error", True)] * 2
        assert status["quarantined"] == 2
        assert status["stats"]["chunks_quarantined"] == 2
        # Every retry ran: attempts reach the budget before quarantine.
        assert status["stats"]["chunks_retried"] == \
            2 * (FAST_RETRY.max_attempts - 1)

    def test_duplicate_completion_is_discarded(self, tmp_path):
        with _server(tmp_path, chunk_size=2) as server:
            _submit(server, _specs(2), chunk_size=2)
            grant = rpc(server.address, "lease", worker="slow")
            outcomes = [(i, "ok", spec["x"] ** 2)
                        for i, spec in grant["points"]]
            first = rpc(server.address, "complete", worker="slow",
                        chunk=grant["chunk"], outcomes=outcomes)
            assert first == {"accepted": 2, "duplicates": 0,
                             "requeued": False}
            again = rpc(server.address, "complete", worker="slower",
                        chunk=grant["chunk"], outcomes=outcomes)
            assert again["duplicates"] == 2 and again["accepted"] == 0
            status = rpc(server.address, "status")
        assert status["stats"]["duplicate_completions"] == 2
        assert status["stats"]["points_completed"] == 2
        assert status["stats"]["digest_mismatches"] == 0

    def test_stale_error_completion_does_not_evict_lease(self, tmp_path):
        """Only the lease holder settles the lease and spends retries."""
        with _server(tmp_path, chunk_size=2) as server:
            _submit(server, _specs(2), chunk_size=2)
            grant = rpc(server.address, "lease", worker="holder")
            stale = rpc(server.address, "complete", worker="stale",
                        chunk=grant["chunk"],
                        outcomes=[(0, "error", "Boom: late loser")])
            assert stale["requeued"] is False
            status = rpc(server.address, "status")
            assert status["leased"][grant["chunk"]]["worker"] == "holder"
            assert status["stats"]["chunks_retried"] == 0
            assert status["stats"]["chunks_quarantined"] == 0
            # The holder's honest completion still lands normally.
            done = rpc(server.address, "complete", worker="holder",
                       chunk=grant["chunk"],
                       outcomes=[(i, "ok", spec["x"] ** 2)
                                 for i, spec in grant["points"]])
            assert done == {"accepted": 2, "duplicates": 0,
                            "requeued": False}

    def test_lease_expiry_quarantine_is_never_rerun_serially(self, tmp_path):
        """A point that kept expiring its lease may be a genuine hang:
        the driver must raise, not re-run it in-process."""
        del _RUN_LOG[:]
        specs = _specs(1)
        with _server(tmp_path, lease_s=0.1, chunk_size=1) as server:
            _submit(server, specs, task="square_logged", chunk_size=1)
            deadline = time.monotonic() + 20.0
            while rpc(server.address, "status")["quarantined"] < 1:
                assert time.monotonic() < deadline
                grant = rpc(server.address, "lease", worker="ghost")
                if "chunk" in grant:
                    time.sleep(0.12)  # wedge: hold the lease past expiry
                else:
                    time.sleep(min(float(grant.get("wait", 0.05)), 0.05))
            with pytest.raises(WorkerPointError) as excinfo:
                farm_execute_points(specs, farm=server.address,
                                    task=_square_logged, poll_s=0.05,
                                    reconnect=FAST_RECONNECT)
        assert "FarmLeaseExpired" in excinfo.value.worker_traceback
        assert excinfo.value.index == 0
        assert _RUN_LOG == []  # never computed by the driver

    def test_mismatched_duplicate_counts_as_digest_mismatch(self, tmp_path):
        with _server(tmp_path, chunk_size=1) as server:
            _submit(server, _specs(1), chunk_size=1)
            grant = rpc(server.address, "lease", worker="honest")
            rpc(server.address, "complete", worker="honest",
                chunk=grant["chunk"], outcomes=[(0, "ok", 0)])
            rpc(server.address, "complete", worker="liar",
                chunk=grant["chunk"], outcomes=[(0, "ok", 999)])
            status = rpc(server.address, "status")
            payload = rpc(server.address, "fetch")
        assert status["stats"]["digest_mismatches"] == 1
        # First completion wins; the liar's value never lands.
        (index, state, data), = payload["results"]
        assert pickle.loads(data) == 0


# -- progress journal ----------------------------------------------------

class TestJournal:
    def test_missing_journal_loads_empty(self, tmp_path):
        path = str(tmp_path / "absent.jsonl")
        assert _replay(path) == ([], [], False, 0)
        with _server(tmp_path, journal_path=path) as server:
            status = rpc(server.address, "status")
        assert status["campaign"] is None and status["total"] == 0
        assert not os.path.exists(path)  # nothing was appended

    def test_torn_tail_is_detected_and_dropped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RecordLog(path)
        for index in range(3):
            data = pickle.dumps(index * 10, protocol=4)
            journal.append({
                "kind": "point", "index": index,
                "digest": hashlib.sha256(data).hexdigest(),
                "data": base64.b64encode(data).decode(),
            })
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"kind": "point", "index": 3, "dig')  # torn write
        kinds, points, torn, _ = _replay(path)
        assert points == [0, 1, 2]
        assert torn is True

    def test_digest_mismatch_ends_replay(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        rotted = {**_point(1, 1), "digest": "0" * 64}
        _write_journal(path, _specs(3), _point(0, 0), rotted, _point(2, 4))
        with _server(tmp_path, journal_path=path, resume=True) as server:
            status = rpc(server.address, "status")
        # Replay stops at the corrupt record: later lines are untrusted.
        assert status["completed"] == 1
        assert status["stats"]["torn_records"] == 1
        assert _replay(path)[:3] == (["campaign", "point", "resume"], [0],
                                     False)

    def test_late_completion_beats_quarantine_on_replay(self, tmp_path):
        """A 'point' record un-quarantines its index, as in the live
        server — an index must never load into both maps."""
        path = str(tmp_path / "j.jsonl")
        _write_journal(
            path, _specs(2),
            {"kind": "quarantine", "chunk": 0, "indices": [0, 1],
             "traceback": "FarmLeaseExpired: ghost"},
            _point(0, 0), chunk=2,
        )
        with _server(tmp_path, journal_path=path, resume=True) as server:
            status = rpc(server.address, "status")
            payload = rpc(server.address, "fetch")
        assert (status["completed"], status["quarantined"]) == (1, 1)
        assert [(index, state) for index, state, _ in payload["results"]] \
            == [(0, "ok"), (1, "error")]

    def test_newline_less_tail_is_torn_even_if_it_parses(self, tmp_path):
        """Only ``record + "\\n"`` is written atomically: a final line
        missing its newline was cut short, however complete it looks."""
        path = str(tmp_path / "j.jsonl")
        journal = RecordLog(path)
        data = pickle.dumps(5, protocol=4)
        record = {
            "kind": "point", "index": 0,
            "digest": hashlib.sha256(data).hexdigest(),
            "data": base64.b64encode(data).decode(),
        }
        journal.append(record)
        journal.close()
        trusted = os.path.getsize(path)
        with open(path, "a") as handle:  # parseable, but no newline
            handle.write(json.dumps({**record, "index": 1}))
        kinds, points, torn, valid_bytes = _replay(path)
        assert points == [0]
        assert torn is True
        assert valid_bytes == trusted
        # repair() drops exactly the untrusted tail.
        journal.repair(valid_bytes)
        assert os.path.getsize(path) == trusted

    def test_append_never_merges_into_a_torn_line(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            handle.write('{"kind": "point", "index": 0, "dig')  # torn
        journal = RecordLog(path)
        # What FarmServer does after every replay, before its first append.
        journal.repair(_replay(path)[3])
        journal.append({"kind": "resume", "at": "now", "git_rev": "x"})
        journal.close()
        # The repair cut the torn fragment away, so the record written
        # after it replays instead of postdating untrusted bytes.
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"kind": "resume", "at": "now", "git_rev": "x"}
        ]
        kinds, _, torn, _ = _replay(path)
        assert kinds == ["resume"]
        assert torn is False

    def test_fresh_server_refuses_a_used_journal_without_resume(
            self, tmp_path):
        with _server(tmp_path) as server:
            _submit(server, _specs(2))
            path = server.journal_path
        with pytest.raises(FarmError, match="--resume"):
            FarmServer(port=0, journal_path=path)

    @pytest.mark.parametrize("resume", [False, True])
    @pytest.mark.parametrize("header, missing", [
        ({"kind": "campaign"}, "manifest"),
        ({"kind": "campaign", "manifest": {}, "task": "t"}, "specs"),
        ({"kind": "campaign", "manifest": {}, "specs": [], "task": 3},
         "task"),
        ({"kind": "campaign", "manifest": {"task": "t"}, "specs": [],
          "task": "t"}, "manifest"),
    ])
    def test_header_missing_a_field_is_refused_untouched(
            self, tmp_path, header, missing, resume):
        """Regression: a campaign header without its manifest crashed the
        server with a bare KeyError instead of refusing the journal.  A
        manifest that does not parse is refused too, never cut away as a
        torn record."""
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n" + '{"kind": "res')
        with open(path, "rb") as handle:
            before = handle.read()
        with pytest.raises(FarmError, match=repr(missing)):
            FarmServer(port=0, journal_path=path, resume=resume)
        with open(path, "rb") as handle:
            assert handle.read() == before

    @pytest.mark.parametrize("resume", [False, True])
    @pytest.mark.parametrize("header_chunk, server_chunk", [
        (None, -1), (-1, None),
    ])
    def test_a_header_that_does_not_install_is_refused_untouched(
            self, tmp_path, header_chunk, server_chunk, resume):
        """Regression: a header whose chunking raised inside the replay
        read as a torn record at byte 0, so the server cut every
        journaled point away (``repro farm serve --chunk -1`` on a
        journal whose driver left the chunk size to the server)."""
        path = str(tmp_path / "journal.jsonl")
        specs = _specs(2)
        _write_journal(path, specs, _point(0, 0), chunk=header_chunk)
        with open(path, "rb") as handle:
            before = handle.read()
        with pytest.raises(FarmError, match="chunk_size"):
            FarmServer(port=0, journal_path=path, chunk_size=server_chunk,
                       resume=resume)
        with open(path, "rb") as handle:
            assert handle.read() == before


# -- crash-resumable campaigns -------------------------------------------

class TestResume:
    def test_resume_never_reruns_a_journaled_point(self, tmp_path):
        del _RUN_LOG[:]
        specs = _specs(8)
        path = str(tmp_path / "journal.jsonl")
        server = _server(tmp_path, journal_path=path, chunk_size=1)
        _submit(server, specs, task="square_logged", chunk_size=1)
        # A worker computes exactly 3 chunks, then the server "crashes".
        FarmWorker(server.address, worker_id="early",
                   reconnect=FAST_RECONNECT).run(max_chunks=3)
        server.stop()
        assert sorted(_RUN_LOG) == [0, 1, 2]

        resumed = _server(tmp_path, journal_path=path, chunk_size=1,
                          resume=True)
        with _workers(resumed.address, "late"):
            out = farm_execute_points(specs, farm=resumed.address,
                                      task=_square_logged, poll_s=0.05,
                                      reconnect=FAST_RECONNECT)
        status = rpc(resumed.address, "status")
        resumed.stop()
        assert out == [x ** 2 for x in range(8)]
        # Journaled points 0-2 were served from the journal, not re-run.
        assert sorted(_RUN_LOG) == list(range(8))
        assert status["stats"]["resumes"] == 1
        assert status["stats"]["points_completed"] == 8

    def test_resume_survives_a_torn_tail(self, tmp_path):
        specs = _specs(6)
        path = str(tmp_path / "journal.jsonl")
        server = _server(tmp_path, journal_path=path, chunk_size=1)
        _submit(server, specs, chunk_size=1)
        FarmWorker(server.address, worker_id="w",
                   reconnect=FAST_RECONNECT).run(max_chunks=4)
        server.stop()
        # SIGKILL mid-append: the last journal line is half-written.
        with open(path, "rb+") as handle:
            handle.seek(-17, 2)
            handle.truncate()
        resumed = _server(tmp_path, journal_path=path, chunk_size=1,
                          resume=True)
        with _workers(resumed.address, "late"):
            out = farm_execute_points(specs, farm=resumed.address,
                                      task=_square, poll_s=0.05,
                                      reconnect=FAST_RECONNECT)
        status = rpc(resumed.address, "status")
        resumed.stop()
        assert out == [x ** 2 for x in range(6)]
        assert status["stats"]["torn_records"] == 1
        assert status["stats"]["resumes"] == 1

    def test_resume_after_quarantine_then_late_completion(self, tmp_path):
        """Regression: replaying quarantine-then-late-completion used to
        leave the index in *both* maps, so the resumed server declared
        the campaign done one point early and crashed fetch with an
        internal KeyError on the genuinely-uncovered index."""
        specs = _specs(3)
        path = str(tmp_path / "journal.jsonl")
        server = _server(tmp_path, journal_path=path, chunk_size=2)
        _submit(server, specs, chunk_size=2)  # chunk0={0,1}, chunk1={2}
        # Drive chunk 0 to quarantine through honest error completions.
        deadline = time.monotonic() + 20.0
        parked = False
        while rpc(server.address, "status")["quarantined"] < 2:
            assert time.monotonic() < deadline
            grant = rpc(server.address, "lease", worker="flaky")
            if grant.get("chunk") == 0:
                rpc(server.address, "complete", worker="flaky", chunk=0,
                    outcomes=[(i, "error", "Boom: flaky") for i, _ in
                              grant["points"]])
            elif "chunk" in grant:
                parked = True  # chunk 1 stays leased, never completes
            else:
                time.sleep(min(float(grant.get("wait", 0.05)), 0.05))
        assert parked
        # A late honest completion covers point 0 only: the journal now
        # holds quarantine([0, 1]) followed by point(0).
        rpc(server.address, "complete", worker="late", chunk=0,
            outcomes=[(0, "ok", 0)])
        server.stop()

        resumed = _server(tmp_path, journal_path=path, chunk_size=1,
                          resume=True)
        # Not done: point 2 is still uncovered after the replay.
        assert rpc(resumed.address, "status")["done"] is False
        with _workers(resumed.address, "drain"):
            out = farm_execute_points(specs, farm=resumed.address,
                                      task=_square, poll_s=0.05,
                                      reconnect=FAST_RECONNECT)
        status = rpc(resumed.address, "status")
        resumed.stop()
        # The driver re-ran the quarantined point serially, and it
        # passed there; the server still holds it quarantined.
        assert out == [0, 1, 4]
        assert status["quarantined"] == 1
        assert status["stats"]["points_completed"] == 2

    def test_records_after_a_resume_survive_a_second_resume(self, tmp_path):
        """Regression: resuming over a torn tail used to append the
        resume marker onto the partial line, so a *second* resume lost
        every record journaled after the first one."""
        del _RUN_LOG[:]
        specs = _specs(6)
        path = str(tmp_path / "journal.jsonl")
        server = _server(tmp_path, journal_path=path, chunk_size=1)
        _submit(server, specs, task="square_logged", chunk_size=1)
        FarmWorker(server.address, worker_id="w0",
                   reconnect=FAST_RECONNECT).run(max_chunks=2)
        server.stop()
        with open(path, "rb+") as handle:  # crash mid-write of point 1
            handle.seek(-9, 2)
            handle.truncate()
        first = _server(tmp_path, journal_path=path, chunk_size=1,
                        resume=True)
        FarmWorker(first.address, worker_id="w1",
                   reconnect=FAST_RECONNECT).run(max_chunks=2)
        first.stop()
        # The second replay keeps everything the first resume journaled.
        kinds, points, torn, _ = _replay(path)
        assert kinds.count("resume") == 1
        assert sorted(points) == [0, 1, 2]
        assert torn is False  # repaired before the re-appends

        final = _server(tmp_path, journal_path=path, chunk_size=1,
                        resume=True)
        with _workers(final.address, "w2"):
            out = farm_execute_points(specs, farm=final.address,
                                      task=_square_logged, poll_s=0.05,
                                      reconnect=FAST_RECONNECT)
        status = rpc(final.address, "status")
        final.stop()
        assert out == [x ** 2 for x in range(6)]
        assert status["stats"]["resumes"] == 2
        assert status["stats"]["points_completed"] == 6
        # Point 0 was journaled before the crash and never re-ran; only
        # torn point 1 ran twice.
        assert _RUN_LOG.count(0) == 1
        assert _RUN_LOG.count(1) == 2

    def test_journal_torn_during_its_first_header_write_stays_replayable(
            self, tmp_path):
        """Regression: a fresh server kept the torn header fragment and
        journaled its whole campaign behind it, where no replay reaches."""
        del _RUN_LOG[:]
        specs = _specs(4)
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w") as handle:
            handle.write('{"kind": "campaign", "manif')  # torn, no newline
        server = _server(tmp_path, journal_path=path, chunk_size=1)
        # The start cut the fragment away and counted it, with no
        # campaign to resume.
        assert os.path.getsize(path) == 0
        assert rpc(server.address, "status")["stats"]["torn_records"] == 1
        with _workers(server.address, "w"):
            out = farm_execute_points(specs, farm=server.address,
                                      task=_square_logged, poll_s=0.05,
                                      reconnect=FAST_RECONNECT)
        server.stop()
        assert out == [x ** 2 for x in range(4)]
        kinds, points, torn, _ = _replay(path)
        assert kinds[0] == "campaign"
        assert sorted(points) == [0, 1, 2, 3]
        assert torn is False

        resumed = _server(tmp_path, journal_path=path, chunk_size=1,
                          resume=True)
        again = farm_execute_points(specs, farm=resumed.address,
                                    task=_square_logged, poll_s=0.05,
                                    reconnect=FAST_RECONNECT)
        resumed.stop()
        assert again == out
        assert sorted(_RUN_LOG) == [0, 1, 2, 3]  # nothing re-ran

    def test_a_digest_mismatch_is_cut_before_the_resume_appends(
            self, tmp_path):
        """The cut-back follows the journal's own replay, digests
        included: records journaled after a resume over a bit-rotted
        point must survive the next load."""
        specs = _specs(4)
        path = str(tmp_path / "journal.jsonl")
        server = _server(tmp_path, journal_path=path, chunk_size=1)
        with _workers(server.address, "w0"):
            farm_execute_points(specs, farm=server.address, task=_square,
                                poll_s=0.05, reconnect=FAST_RECONNECT)
        server.stop()
        with open(path) as handle:
            lines = handle.read().splitlines()
        points = [n for n, line in enumerate(lines)
                  if json.loads(line)["kind"] == "point"]
        rotted = json.loads(lines[points[1]])
        rotted["digest"] = "0" * 64
        lines[points[1]] = json.dumps(rotted)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")

        resumed = _server(tmp_path, journal_path=path, chunk_size=1,
                          resume=True)
        with _workers(resumed.address, "w1"):
            out = farm_execute_points(specs, farm=resumed.address,
                                      task=_square, poll_s=0.05,
                                      reconnect=FAST_RECONNECT)
        resumed.stop()
        assert out == [x ** 2 for x in range(4)]
        kinds, points, torn, _ = _replay(path)
        assert sorted(points) == [0, 1, 2, 3]
        assert torn is False
        assert kinds.count("resume") == 1

    def test_a_doctored_point_is_refused_at_fetch_and_never_run(
            self, tmp_path):
        """A digest only proves a payload matches its own record: a
        journal doctored with a valid digest over a pickle of another
        global must fail the driver's fetch without calling it."""
        del _TRIPPED[:]
        specs = _specs(4)
        path = str(tmp_path / "journal.jsonl")
        server = _server(tmp_path, journal_path=path, chunk_size=1)
        with _workers(server.address, "w0"):
            farm_execute_points(specs, farm=server.address, task=_square,
                                poll_s=0.05, reconnect=FAST_RECONNECT)
        server.stop()
        with open(path) as handle:
            lines = handle.read().splitlines()
        point = next(n for n, line in enumerate(lines)
                     if json.loads(line)["kind"] == "point")
        record = json.loads(lines[point])
        record.update(pack(pickle.dumps(_Doctored(), protocol=4)))
        lines[point] = json.dumps(record)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")

        resumed = _server(tmp_path, journal_path=path, chunk_size=1,
                          resume=True)
        try:
            with pytest.raises(pickle.UnpicklingError,
                               match="may not reference"):
                farm_execute_points(specs, farm=resumed.address,
                                    task=_square, poll_s=0.05,
                                    reconnect=FAST_RECONNECT)
        finally:
            resumed.stop()
        assert _TRIPPED == []

    def test_quarantined_chunks_survive_a_resume(self, tmp_path):
        """Regression: ``chunks_quarantined`` read 0 after a resume while
        every other journaled count was restored."""
        path = str(tmp_path / "journal.jsonl")
        server = _server(tmp_path, journal_path=path, chunk_size=1)
        with _workers(server.address, "w"):
            with pytest.raises(WorkerPointError):
                farm_execute_points([{"x": 1}, {"x": 2}],
                                    farm=server.address,
                                    task=_always_fails, poll_s=0.05)
        live = rpc(server.address, "status")["stats"]
        server.stop()
        with _server(tmp_path, journal_path=path, resume=True) as resumed:
            stats = rpc(resumed.address, "status")["stats"]
        assert live["chunks_quarantined"] == 2
        assert stats["chunks_quarantined"] == 2

    def test_a_resumed_server_reports_what_the_live_one_did(self, tmp_path):
        """Live == replay: one campaign through a lease expiry, a
        quarantine, a late completion and duplicate completions, then a
        resume on its journal reads the same coverage, campaign-lifetime
        counts and merge digest, with one more resume."""
        path = str(tmp_path / "journal.jsonl")
        server = _server(tmp_path, journal_path=path, lease_s=0.3,
                         chunk_size=2)
        _submit(server, _specs(6), chunk_size=2)  # chunks {0,1} {2,3} {4,5}
        assert rpc(server.address, "lease", worker="ghost")["chunk"] == 0
        time.sleep(0.35)  # the ghost's lease lapses; the next op reaps it
        deadline = time.monotonic() + 20.0
        while not rpc(server.address, "status")["done"]:
            assert time.monotonic() < deadline
            grant = rpc(server.address, "lease", worker="w")
            if "chunk" not in grant:
                time.sleep(min(float(grant["wait"]), 0.05))
            elif grant["chunk"] == 1:  # poison until quarantined
                rpc(server.address, "complete", worker="w", chunk=1,
                    outcomes=[(i, "error", "Boom: poison")
                              for i, _ in grant["points"]])
            else:
                outcomes = [(i, "ok", spec["x"] ** 2)
                            for i, spec in grant["points"]]
                for worker in ("w", "dup"):
                    rpc(server.address, "complete", worker=worker,
                        chunk=grant["chunk"], outcomes=outcomes)
        # A late honest completion covers point 2 of the quarantined pair.
        rpc(server.address, "complete", worker="late", chunk=1,
            outcomes=[(2, "ok", 4)])
        live = rpc(server.address, "status")
        live_fetch = rpc(server.address, "fetch")
        server.stop()
        with _server(tmp_path, journal_path=path, resume=True) as resumed:
            replayed = rpc(resumed.address, "status")
            replayed_fetch = rpc(resumed.address, "fetch")

        assert (live["completed"], live["quarantined"]) == (5, 1)
        assert live["stats"]["leases_expired"] == 1
        assert live["stats"]["duplicate_completions"] == 4
        assert (replayed["completed"], replayed["quarantined"]) == (5, 1)
        for key in ("points_completed", "leases_expired", "workers_lost",
                    "chunks_quarantined", "resumes"):
            bump = 1 if key == "resumes" else 0
            assert replayed["stats"][key] == live["stats"][key] + bump, key
        assert replayed_fetch["merge_digest"] == live_fetch["merge_digest"]

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_seeded_chaos_converges_to_the_serial_answer(
            self, tmp_path, seed):
        """Property test: kills + duplicates + truncation stay correct.

        A seeded storm — workers abandoning leases mid-campaign, a
        duplicated chunk completion, a server kill with a truncated
        journal tail, then a resume — must still merge byte-identical
        to the serial run, with no point both completed and quarantined.
        """
        rng = random.Random(seed)
        specs = _specs(rng.randrange(8, 16))
        serial = execute_points(specs, jobs=1, task=_square)
        path = str(tmp_path / "journal.jsonl")

        server = _server(tmp_path, journal_path=path, lease_s=0.2,
                         chunk_size=rng.choice([1, 2, 3]))
        _submit(server, specs, chunk_size=rng.choice([1, 2, 3]))
        # Phase 1: flaky workers that die (abandon leases) after a few
        # chunks; one survivor also re-sends a duplicate completion.
        for index in range(rng.randrange(1, 4)):
            FarmWorker(server.address, worker_id=f"flaky{index}",
                       reconnect=FAST_RECONNECT).run(
                max_chunks=rng.randrange(1, 3))
        grant = rpc(server.address, "lease", worker="dup")
        if "chunk" in grant:
            outcomes = [(i, "ok", spec["x"] ** 2)
                        for i, spec in grant["points"]]
            rpc(server.address, "complete", worker="dup",
                chunk=grant["chunk"], outcomes=outcomes)
            rpc(server.address, "complete", worker="dup",
                chunk=grant["chunk"], outcomes=outcomes)
        # A worker that leases and dies mid-chunk: never completes.
        rpc(server.address, "lease", worker="abandoner")
        # Phase 2: kill the server; maybe tear the journal's last line.
        server.stop()
        if rng.random() < 0.5:
            with open(path, "rb+") as handle:
                size = handle.seek(0, 2)
                handle.truncate(size - rng.randrange(1, 9))
        # Phase 3: resume and drain with fresh workers.
        resumed = _server(tmp_path, journal_path=path, lease_s=1.0,
                          chunk_size=1, resume=True)
        with _workers(resumed.address, "drain0", "drain1"):
            out = farm_execute_points(specs, farm=resumed.address,
                                      task=_square, poll_s=0.05,
                                      reconnect=FAST_RECONNECT)
        status = rpc(resumed.address, "status")
        resumed.stop()

        assert out == serial
        assert status["stats"]["resumes"] == 1
        assert status["stats"]["points_completed"] == len(specs)
        assert status["quarantined"] == 0


# -- graceful degradation ------------------------------------------------

class TestDegradation:
    def test_unreachable_server_raises_without_fallback(self):
        with pytest.raises(FarmUnreachableError):
            farm_execute_points(_specs(2), farm="127.0.0.1:9",
                                task=_square, reconnect=FAST_RECONNECT)

    def test_driver_stall_timeout_raises_instead_of_polling_forever(
            self, tmp_path, monkeypatch):
        """A campaign making no progress (here: no workers at all) must
        not hold the driver hostage when ``REPRO_CHUNK_TIMEOUT_S`` bounds
        the stall."""
        with _server(tmp_path, chunk_size=1) as server:
            monkeypatch.setenv("REPRO_CHUNK_TIMEOUT_S", "0.2")
            with pytest.raises(FarmError, match="no farm progress"):
                farm_execute_points(_specs(2), farm=server.address,
                                    task=_square, poll_s=0.02,
                                    reconnect=FAST_RECONNECT)
            # The campaign survives the driver's exit: a worker can
            # still drain it and a patient driver gets the results.
            monkeypatch.delenv("REPRO_CHUNK_TIMEOUT_S")
            with _workers(server.address, "late"):
                out = farm_execute_points(_specs(2), farm=server.address,
                                          task=_square, poll_s=0.02,
                                          reconnect=FAST_RECONNECT)
        assert out == [0, 1]

    def test_nonloopback_bind_requires_explicit_authkey(
            self, tmp_path, monkeypatch):
        """The authkey is the pickle protocol's only trust boundary, and
        the in-repo default is public: wildcard binds must refuse it."""
        monkeypatch.delenv("REPRO_FARM_AUTHKEY", raising=False)
        server = FarmServer(host="0.0.0.0", port=0,
                            journal_path=str(tmp_path / "j.jsonl"))
        with pytest.raises(FarmError, match="REPRO_FARM_AUTHKEY"):
            server.start()
        # An explicit shared secret unlocks the non-loopback bind.
        monkeypatch.setenv("REPRO_FARM_AUTHKEY", "a-real-secret")
        server = FarmServer(host="0.0.0.0", port=0,
                            journal_path=str(tmp_path / "j2.jsonl"))
        try:
            server.start()
            _, port = parse_address(server.address)
            assert rpc(f"127.0.0.1:{port}", "status")["total"] == 0
        finally:
            server.stop()

    def test_worker_rides_out_a_server_restart(self, tmp_path):
        specs = _specs(6)
        path = str(tmp_path / "journal.jsonl")
        server = _server(tmp_path, journal_path=path, chunk_size=1)
        _submit(server, specs, chunk_size=1)
        address = server.address
        host, port = parse_address(address)
        # A patient worker keeps retrying while the server is away.
        patient = RetryPolicy(max_attempts=40, base_backoff_us=5e4,
                              backoff_factor=1.5, max_backoff_us=2e5)
        worker = FarmWorker(address, worker_id="patient",
                            reconnect=patient)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        time.sleep(0.3)
        server.stop()
        time.sleep(0.3)  # worker RPCs fail and back off meanwhile
        resumed = FarmServer(host=host, port=port, journal_path=path,
                             chunk_size=1, resume=True,
                             chunk_retry=FAST_RETRY)
        resumed.start()
        out = farm_execute_points(specs, farm=resumed.address,
                                  task=_square, poll_s=0.05,
                                  reconnect=FAST_RECONNECT)
        thread.join(timeout=10.0)  # before stop: it exits on "done"
        resumed.stop()
        assert out == [x ** 2 for x in range(6)]
        assert not thread.is_alive()


# -- robustness rollups (BENCH entry) ------------------------------------

class TestBenchEntry:
    def test_rollups_and_entry_shape(self, tmp_path):
        with _server(tmp_path, chunk_size=2) as server:
            with _workers(server.address, "w"):
                farm_execute_points(_specs(4), farm=server.address,
                                    task=_square, poll_s=0.05)
            status = rpc(server.address, "status")
        rollups = farm_rollups(status)
        assert rollups["total_points"] == 4.0
        assert rollups["points_completed"] == 4.0
        assert rollups["workers_lost"] == 0.0

        path = str(tmp_path / "BENCH_robustness.json")
        with open(path, "w") as handle:
            json.dump({"summary": {"total_runs": 1}}, handle)
        document = record_farm_bench_entry(path, "farm-test", status)
        # Existing campaign content is preserved alongside the entry.
        assert document["summary"] == {"total_runs": 1}
        entry = document["entries"]["farm-test"]
        assert entry["solver"] == "farm"
        points = entry["sweeps"]["farm-robustness"]["points"]
        assert [p["metric"] for p in points][:2] == \
            ["total_points", "points_completed"]
        with open(path) as handle:
            assert json.load(handle) == document

    def test_entry_gates_through_compare_bench(self, tmp_path):
        from repro.telemetry.manifest import compare_bench

        with _server(tmp_path, chunk_size=2) as server:
            with _workers(server.address, "w"):
                farm_execute_points(_specs(4), farm=server.address,
                                    task=_square, poll_s=0.05)
            status = rpc(server.address, "status")
        path = str(tmp_path / "bench.json")
        record_farm_bench_entry(path, "base", status)
        record_farm_bench_entry(path, "same", status)
        status["stats"]["workers_lost"] = 3
        record_farm_bench_entry(path, "drifted", status)
        with open(path) as handle:
            bench = json.load(handle)
        assert compare_bench(bench, "base", "same") == []
        drifts = compare_bench(bench, "base", "drifted")
        assert any("farm-robustness" in line for line in drifts)


# -- runtime trace spans (docs/observability.md) -------------------------

def _submit_traced(server, specs, trace, task="square"):
    manifest = CampaignManifest.build(task, specs)
    return rpc(server.address, "submit", manifest=manifest.to_dict(),
               specs=specs, task=task, chunk_size=1, trace=trace)


class TestRuntimeSpans:
    def test_a_trace_without_an_id_is_dropped(self, tmp_path):
        """Regression: a submitted trace without a string ``trace_id``
        failed every lease with an internal ``KeyError`` after recording
        it, so a chunk sat leased to a worker that never got it, live
        and after a resume."""
        server = _server(tmp_path)
        _submit_traced(server, _specs(1), {"span_id": "abc"})
        grant = rpc(server.address, "lease", worker="w")
        leased = rpc(server.address, "status")["leased"]
        server.stop()
        # The journal replays the same trace, and the resume drops it too.
        with _server(tmp_path, resume=True) as resumed:
            regrant = rpc(resumed.address, "lease", worker="w")
        for lease in (grant, regrant):
            assert lease["chunk"] == 0 and "trace" not in lease
        assert list(leased) == [grant["chunk"]]
        assert leased[grant["chunk"]]["worker"] == "w"

    def test_each_lease_mints_a_fresh_span_under_one_trace(self, tmp_path):
        with _server(tmp_path, chunk_size=1) as server:
            trace = mint_trace()
            _submit_traced(server, _specs(2), trace)
            first = rpc(server.address, "lease", worker="w0")
            second = rpc(server.address, "lease", worker="w1")
            for grant in (first, second):
                assert grant["trace"]["trace_id"] == trace["trace_id"]
                assert grant["trace"]["parent_span"] == trace["span_id"]
            assert first["trace"]["span_id"] != second["trace"]["span_id"]

    def test_spans_survive_crash_and_releases_get_fresh_span_ids(
            self, tmp_path):
        """Satellite invariant: chunk spans are journaled like campaign
        events, so a trace assembled after a SIGKILL + ``--resume``
        still shows pre-crash chunks, and a chunk re-leased after the
        resume reports a *fresh* span id under the *same* trace id."""
        specs = _specs(3)
        path = str(tmp_path / "journal.jsonl")
        server = _server(tmp_path, journal_path=path, chunk_size=1)
        trace = mint_trace()
        _submit_traced(server, specs, trace)
        # One worker ships one chunk span; a second chunk is leased but
        # never completed; then the server "crashes" mid-campaign.
        FarmWorker(server.address, worker_id="early",
                   reconnect=FAST_RECONNECT).run(max_chunks=1)
        parked = rpc(server.address, "lease", worker="parked")
        parked_span = parked["trace"]["span_id"]
        server.stop()

        resumed = _server(tmp_path, journal_path=path, chunk_size=1,
                          resume=True)
        try:
            replayed = rpc(resumed.address, "trace")
            # The pre-crash span and the driver's trace context both
            # survived the journal replay.
            assert replayed["trace"] == trace
            assert replayed["count"] == 1
            (span0,) = replayed["spans"]
            assert span0["trace_id"] == trace["trace_id"]
            assert span0["parent_id"] == trace["span_id"]
            assert span0["name"].startswith("farm.chunk.")
            assert span0["component"] == "farm.worker"
            assert span0["attrs"]["worker"] == "early"
            assert span0["end_s"] >= span0["start_s"]
            # Re-leases (including the abandoned chunk) chain fresh span
            # ids under the original trace.
            seen = {span0["span_id"], parked_span}
            while True:
                grant = rpc(resumed.address, "lease", worker="late")
                if "chunk" not in grant:
                    break
                assert grant["trace"]["trace_id"] == trace["trace_id"]
                assert grant["trace"]["span_id"] not in seen
                seen.add(grant["trace"]["span_id"])
                index, spec = grant["points"][0]
                rpc(resumed.address, "complete", worker="late",
                    chunk=grant["chunk"],
                    outcomes=[(index, "ok", spec["x"] ** 2)])
            # fetch hands the journaled spans back beside the results
            # (manual completions above shipped none).
            payload = rpc(resumed.address, "fetch")
            assert payload["done"] is True
            assert [item["span_id"] for item in payload["spans"]] == (
                [span0["span_id"]]
            )
        finally:
            resumed.stop()
