"""The prediction service (``repro.serve``) and its serving tiers.

The invariants under test mirror ``docs/serving.md``:

* **bit-identity** — a cold, memoized, or disk-cached answer is
  byte-for-byte the serial harness's answer (same pickle digest),
  across the three headline protocols;
* **cache hygiene** — the on-disk cache refuses entries recorded at a
  different git revision or with a tampered spec/payload (stale results
  are refused, never silently served), and tolerates a torn trailing
  write;
* **coalescing** — concurrent duplicate queries provably collapse onto
  one simulation;
* **observability** — tier hit counters and latency percentiles
  reflect what actually happened.

Everything runs in-process: servers bind ephemeral loopback ports and
clients are threads, exactly like the farm tests.
"""

import base64
import hashlib
import json
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.bench.harness import run_collective
from repro.hardware.machine import Machine, Mode
from repro.serve.client import ServeClient, ServeRequestError, parse_address
from repro.serve import server as server_module
from repro.serve.server import (
    MAX_REQUEST_BYTES,
    _encode,
    start_background_server,
)
from repro.serve.service import (
    CachedAnswer,
    DiskCache,
    MemoCache,
    PredictionService,
    QueryError,
    answer_response,
    normalize_query,
    query_key,
)
from repro.telemetry.manifest import compare_bench
from repro.telemetry.runtime import parse_prometheus, span_store
from repro.util.records import pickle_digest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: the paper's headline crossover protocols, at test-sized points
HEADLINE = [
    {"family": "bcast", "algorithm": "tree-shaddr", "x": 16384, "iters": 2},
    {"family": "bcast", "algorithm": "torus-shaddr", "x": 32768, "iters": 2},
    {"family": "allreduce", "algorithm": "allreduce-torus-shaddr",
     "x": 2048, "iters": 2},
]


def _direct_digest(query: dict) -> str:
    """The cold serial harness's answer for a query, as a pickle digest."""
    machine = Machine(torus_dims=(2, 2, 2), mode=Mode.QUAD)
    result = run_collective(
        machine, query["family"], query["algorithm"], query["x"],
        iters=query["iters"],
    )
    return pickle_digest(result)


# -- normalization and cache keys -----------------------------------------

class TestNormalizeQuery:
    def test_defaults_are_made_explicit(self):
        spec = normalize_query({"family": "bcast", "algorithm": "tree-shaddr",
                                "x": 4096})
        assert spec["dims"] == (2, 2, 2)
        assert spec["mode"] == "QUAD"
        assert spec["seed"] == 1234 and spec["iters"] == 1
        assert spec["wrap"] is True and spec["network"] == "torus"

    def test_auto_resolves_through_selection_table(self):
        short = normalize_query({"family": "bcast", "algorithm": "auto",
                                 "x": 4096})
        large = normalize_query({"family": "bcast", "algorithm": "auto",
                                 "x": 4 * 1024 * 1024})
        assert short["algorithm"] == "tree-shmem"
        assert large["algorithm"] == "torus-shaddr"

    def test_key_covers_every_identity_field(self):
        base = {"family": "bcast", "algorithm": "tree-shaddr", "x": 4096}
        key = query_key(normalize_query(base))
        assert query_key(normalize_query(base)) == key  # stable
        for variant in (
            {"x": 8192}, {"seed": 7}, {"iters": 2}, {"mode": "SMP"},
            {"dims": [2, 2, 1]}, {"algorithm": "tree-shmem"},
        ):
            other = query_key(normalize_query({**base, **variant}))
            assert other != key, f"key ignored {variant}"

    def test_refuses_unservable_fields(self):
        base = {"family": "bcast", "algorithm": "tree-shaddr", "x": 4096}
        for refused in (
            {"verify": True}, {"deadline_us": 100.0},
            {"faults": [{"kind": "x"}]}, {"fresh_machine": True},
            {"bogus": 1}, {"analytic": True}, {"analytic": False},
            {"working_set_override": 1 << 20},
        ):
            with pytest.raises(QueryError):
                normalize_query({**base, **refused})

    def test_root_only_where_the_family_takes_one(self):
        base = {"family": "allreduce", "algorithm": "allreduce-tree",
                "x": 64}
        with pytest.raises(QueryError, match="takes no root"):
            normalize_query({**base, "root": 1})
        assert normalize_query(base)["root"] == 0
        bcast = normalize_query({"family": "bcast", "algorithm": "torus-fifo",
                                 "x": 4096, "root": 1})
        assert bcast["root"] == 1

    def test_refuses_unknown_family_and_bad_geometry(self):
        with pytest.raises(QueryError):
            normalize_query({"family": "nope", "x": 1})
        with pytest.raises(QueryError):
            normalize_query({"family": "bcast", "algorithm": "tree-shaddr",
                             "x": 4096, "dims": [2, 2]})
        with pytest.raises(QueryError):
            normalize_query({"family": "bcast", "algorithm": "tree-shaddr",
                             "x": 4096, "mode": "OCTO"})

    @pytest.mark.parametrize("field, value", [
        ("x", 4096.9), ("x", True), ("iters", 2.7), ("iters", True),
        ("seed", 77.5), ("seed", False), ("root", True), ("root", 1.5),
        ("dims", [2.9, 2, 2]), ("dims", [2, True, 2]),
        ("wrap", "false"), ("wrap", 0), ("window_caching", "false"),
        ("window_caching", 1), ("steady_state", "yes"),
    ])
    def test_refuses_values_it_would_have_to_truncate(self, field, value):
        """A bool or a fractional number where an integer belongs, or a
        non-boolean flag, is refused by name, never coerced into the
        answer to a different question."""
        base = {"family": "bcast", "algorithm": "tree-shaddr", "x": 4096}
        with pytest.raises(QueryError, match=field):
            normalize_query({**base, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("family", ["bcast"], "unknown collective family"),
        ("family", {"name": "bcast"}, "unknown collective family"),
        ("algorithm", ["tree-shaddr"], "algorithm must be a name"),
        ("algorithm", {"name": "tree-shaddr"}, "algorithm must be a name"),
        ("dims", {"a": 1}, "dims must be three integers"),
        ("dims", {"x": 2, "y": 2, "z": 2}, "dims must be three integers"),
    ])
    def test_refuses_json_containers_by_field(self, field, value, message):
        """A JSON list or object where a name or the geometry belongs is
        refused by the field's name, never hashed or read by its keys."""
        base = {"family": "bcast", "algorithm": "tree-shaddr", "x": 4096}
        with pytest.raises(QueryError, match=message):
            normalize_query({**base, field: value})

    def test_integral_floats_and_digit_strings_keep_their_key(self):
        base = {"family": "bcast", "algorithm": "tree-shaddr", "x": 4096,
                "iters": 2, "seed": 77, "dims": [2, 2, 2]}
        loose = {**base, "x": 4096.0, "iters": "2", "seed": "77",
                 "dims": [2.0, 2, 2]}
        assert query_key(normalize_query(loose)) == query_key(
            normalize_query(base))

    def test_unknown_algorithm_surfaces_at_normalize_time(self):
        with pytest.raises(KeyError):
            normalize_query({"family": "bcast", "algorithm": "tree-shadr",
                             "x": 4096})


# -- the memo cache --------------------------------------------------------

class TestMemoCache:
    def test_lru_bound_and_counters(self):
        cache = MemoCache(max_entries=2)
        cache.put("a", "A")
        cache.put("b", "B")
        assert cache.get("a") == "A"  # refresh a
        cache.put("c", "C")  # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == "A" and cache.get("c") == "C"
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 3 and stats["misses"] == 1


# -- tier bit-identity -----------------------------------------------------

class TestTierBitIdentity:
    @pytest.mark.parametrize("query", HEADLINE,
                             ids=[q["algorithm"] for q in HEADLINE])
    def test_cold_memo_identical_to_serial_harness(self, query):
        expected = _direct_digest(query)

        cold = PredictionService(use_memo=False)
        cold_response = cold.serve(query)
        assert cold_response["tier"] == "cold"
        assert cold_response["digest"] == expected

        # A service that has already computed a *different* point of the
        # same geometry still builds a fresh machine for the next one.
        primed = PredictionService(use_memo=False)
        primed.serve({**query, "x": query["x"] // 2})
        primed_response = primed.serve(query)
        assert primed_response["tier"] == "cold"
        assert primed_response["digest"] == expected

        memo = PredictionService()
        memo.serve(query)
        memo_response = memo.serve(query)
        assert memo_response["tier"] == "memo"
        assert memo_response["digest"] == expected

    def test_memo_hit_skips_computation(self, monkeypatch):
        service = PredictionService()
        calls = []
        original = service.compute

        def counting(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(service, "compute", counting)
        query = {"family": "bcast", "algorithm": "tree-shaddr", "x": 4096}
        first = service.serve(query)
        second = service.serve(query)
        assert len(calls) == 1
        assert second["tier"] == "memo"
        assert second["digest"] == first["digest"]

    def test_barrier_never_uses_the_pool(self):
        service = PredictionService()
        service.serve({"family": "bcast", "algorithm": "tree-shaddr",
                       "x": 4096})
        response = service.serve({"family": "barrier",
                                  "algorithm": "barrier-gi", "x": 0})
        # A barrier installs no working set, so it must never run on a
        # machine a previous point configured — it computes cold, with
        # the answer of a barrier on a fresh machine.
        assert response["tier"] == "cold"
        assert response["digest"] == _direct_digest(
            {"family": "barrier", "algorithm": "barrier-gi", "x": 0,
             "iters": 1})


# -- the response body, built once per answer -----------------------------

def _reference_response(answer, tier: str, key: str) -> dict:
    """A response built from scratch, field by field: what every memo
    hit rebuilt before the body was kept on the answer."""
    result = answer.result
    return {
        "ok": True,
        "tier": tier,
        "key": key,
        "family": answer.spec["family"],
        "algorithm": result.algorithm,
        "x": answer.spec["x"],
        "nbytes": result.nbytes,
        "nprocs": result.nprocs,
        "elapsed_us": result.elapsed_us,
        "bandwidth_mbs": result.bandwidth_mbs,
        "iterations_us": list(result.iterations_us),
        "digest": answer.digest,
        "manifest": result.manifest.to_dict(),
        "spec": {**answer.spec, "dims": list(answer.spec["dims"])},
    }


def _wire(response: dict) -> dict:
    """A response as a client parses it off the wire."""
    return json.loads(json.dumps(response, sort_keys=True))


class TestCachedResponse:
    QUERY = {"family": "allreduce", "algorithm": "allreduce-torus-shaddr",
             "x": 2048, "iters": 2}

    def test_memo_hits_match_a_freshly_built_response(self):
        service = PredictionService()
        with start_background_server(service) as background:
            with ServeClient(background.address) as client:
                cold = client.predict(**self.QUERY)
                hits = [client.predict(**self.QUERY) for _ in range(3)]
        spec, key = service.normalize(self.QUERY)
        answer, _ = service.lookup(key)
        assert cold["tier"] == "cold"
        for tier, response in [("cold", cold)] + [("memo", h) for h in hits]:
            expected = _wire(_reference_response(answer, tier, key))
            expected["op"] = "predict"
            assert response == expected
            for field in ("manifest", "spec", "iterations_us", "digest",
                          "tier", "key"):
                assert response[field] == expected[field], field
        # The in-process entry point answers the same body.
        assert _wire(service.serve(self.QUERY)) == _wire(
            _reference_response(answer, "memo", key))

    def test_added_fields_never_reach_the_next_response(self):
        service = PredictionService()
        service.serve(self.QUERY)
        _, key = service.normalize(self.QUERY)
        answer, tier = service.lookup(key)
        first = answer_response(answer, tier, key)
        first["id"] = 7
        first["coalesced"] = True
        first["op"] = "predict"
        second = answer_response(answer, tier, key)
        assert not {"id", "coalesced", "op"} & set(second)
        assert second == _reference_response(answer, tier, key)

        with start_background_server(service) as background:
            with ServeClient(background.address) as client:
                tagged = client.request({**self.QUERY, "op": "predict",
                                         "id": "first"})
                plain = client.predict(**self.QUERY)
        assert tagged["id"] == "first"
        assert "id" not in plain and "coalesced" not in plain

    def test_disk_records_keep_their_keys_and_digests(self, tmp_path):
        path = str(tmp_path / "serve.cache")
        service = PredictionService(cache_path=path)
        responses = [service.serve(self.QUERY) for _ in range(3)]
        assert [r["tier"] for r in responses] == ["cold", "memo", "memo"]
        spec, key = service.normalize(self.QUERY)
        answer, _ = service.lookup(key)
        records = [json.loads(line)
                   for line in Path(path).read_text().splitlines()]
        assert [r["kind"] for r in records] == ["header", "result"]
        record = records[1]
        assert set(record) == {"kind", "key", "spec", "digest", "data"}
        assert record["key"] == key
        assert record["spec"] == {**_wire(spec), "faults": None,
                                  "solver_mode":
                                  answer.result.manifest.solver_mode}
        data = base64.b64decode(record["data"])
        assert record["digest"] == hashlib.sha256(data).hexdigest()
        assert pickle_digest(pickle.loads(data)) == answer.digest
        # A restart answers from disk with the same body as the memo.
        restarted = PredictionService(cache_path=path)
        from_disk = restarted.serve(self.QUERY)
        assert from_disk["tier"] == "disk"
        assert {**from_disk, "tier": "memo"} == responses[-1]


# -- the on-disk cache -----------------------------------------------------

class TestDiskCache:
    QUERY = {"family": "bcast", "algorithm": "tree-shaddr", "x": 4096,
             "iters": 2}

    def _primed_cache(self, tmp_path):
        path = str(tmp_path / "serve.cache")
        service = PredictionService(cache_path=path)
        response = service.serve(self.QUERY)
        return path, response

    def test_restart_serves_from_disk(self, tmp_path):
        path, first = self._primed_cache(tmp_path)
        restarted = PredictionService(cache_path=path)
        assert restarted.disk.loaded == 1
        response = restarted.serve(self.QUERY)
        assert response["tier"] == "disk"
        assert response["digest"] == first["digest"]
        # Promotion: the second repeat is an in-memory hit.
        assert restarted.serve(self.QUERY)["tier"] == "memo"

    def test_git_rev_mismatch_refuses_all_entries(self, tmp_path, capsys):
        path, _ = self._primed_cache(tmp_path)
        lines = Path(path).read_text().splitlines()
        header = json.loads(lines[0])
        header["git_rev"] = "0000000"
        with open(path, "w") as handle:
            handle.write("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        stale = DiskCache(path)
        assert len(stale) == 0
        assert stale.loaded == 0
        assert stale.stale_git_rev == "0000000"
        # A stale file is replaced on the next store, not appended to.
        service = PredictionService(cache_path=path)
        service.serve(self.QUERY)
        assert DiskCache(path).loaded == 1

    def test_tampered_spec_is_refused(self, tmp_path):
        path, _ = self._primed_cache(tmp_path)
        lines = Path(path).read_text().splitlines()
        entry = json.loads(lines[1])
        entry["spec"]["x"] = 8192  # re-label the answer as another point
        with open(path, "w") as handle:
            handle.write("\n".join([lines[0], json.dumps(entry)]) + "\n")
        cache = DiskCache(path)
        assert len(cache) == 0 and cache.dropped == 1

    def test_corrupt_payload_is_refused(self, tmp_path):
        path, _ = self._primed_cache(tmp_path)
        lines = Path(path).read_text().splitlines()
        entry = json.loads(lines[1])
        data = bytearray(base64.b64decode(entry["data"]))
        data[len(data) // 2] ^= 0xFF
        entry["data"] = base64.b64encode(bytes(data)).decode("ascii")
        with open(path, "w") as handle:
            handle.write("\n".join([lines[0], json.dumps(entry)]) + "\n")
        cache = DiskCache(path)
        assert len(cache) == 0 and cache.dropped == 1

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        path, first = self._primed_cache(tmp_path)
        with open(path, "a") as handle:
            handle.write('{"kind": "result", "key": "torn')  # no newline
        cache = DiskCache(path)
        assert cache.loaded == 1 and cache.dropped == 1
        service = PredictionService(cache_path=path)
        assert service.serve(self.QUERY)["digest"] == first["digest"]

    def test_store_after_a_torn_tail_survives_a_restart(self, tmp_path):
        """Regression: the store after a crash mid-store was appended
        onto the torn fragment, and every later load dropped it."""
        path, _ = self._primed_cache(tmp_path)
        with open(path, "a") as handle:
            handle.write('{"kind": "result", "key": "torn')  # no newline
        second = {**self.QUERY, "x": 8192}
        stored = PredictionService(cache_path=path).serve(second)
        assert stored["tier"] == "cold"
        restarted = PredictionService(cache_path=path)
        response = restarted.serve(second)
        assert response["tier"] == "disk"
        assert response["digest"] == stored["digest"]
        assert restarted.disk.loaded == 2 and restarted.disk.dropped == 0

    def test_stores_from_two_threads_all_survive_a_restart(self, tmp_path):
        """The server stores from its compute thread and its event loop;
        neither may tear the other's write or cut the other's header."""
        service = PredictionService()
        answer, _ = service.compute(service.normalize(self.QUERY)[0])
        path = str(tmp_path / "serve.cache")
        cache = DiskCache(path)
        sizes = [[self.QUERY["x"] + 64 * (2 * n + side) for n in range(40)]
                 for side in range(2)]
        errors = []

        def store(xs):
            try:
                for x in xs:
                    spec, key = service.normalize({**self.QUERY, "x": x})
                    cache.put(key, CachedAnswer(result=answer.result,
                                                digest=answer.digest,
                                                spec=spec))
            except Exception as exc:  # surfaced below, not in the thread
                errors.append(exc)

        threads = [threading.Thread(target=store, args=(xs,))
                   for xs in sizes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        restarted = DiskCache(path)
        assert restarted.loaded == 80 and restarted.dropped == 0
        assert restarted.get(service.normalize(
            {**self.QUERY, "x": sizes[1][-1]})[1]).digest == answer.digest

    @pytest.mark.parametrize("broken", ["header", "entry"])
    def test_a_non_object_line_is_refused_not_fatal(self, tmp_path, broken):
        path, _ = self._primed_cache(tmp_path)
        with open(path) as handle:
            header, entry = handle.read().splitlines()
        lines = (["[1, 2]", entry] if broken == "header"
                 else [header, '"oops"', entry])
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        assert len(DiskCache(path)) == 0
        assert PredictionService(cache_path=path).serve(
            self.QUERY)["tier"] == "cold"
        restarted = PredictionService(cache_path=path)
        assert restarted.serve(self.QUERY)["tier"] == "disk"
        assert restarted.disk.dropped == 0

    def test_serve_layer_does_not_import_the_farm(self):
        code = ("import sys, repro.serve.server, repro.serve.service; "
                "print('repro.bench.farm' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": SRC}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == "False"

    def test_unpickling_refuses_foreign_globals(self, tmp_path):
        path, _ = self._primed_cache(tmp_path)
        lines = Path(path).read_text().splitlines()
        entry = json.loads(lines[1])
        # A doctored payload whose pickle references an arbitrary
        # callable must not survive a cache read.
        evil = pickle.dumps(print, protocol=4)
        entry["data"] = base64.b64encode(evil).decode("ascii")
        entry["digest"] = hashlib.sha256(evil).hexdigest()
        with open(path, "w") as handle:
            handle.write("\n".join([lines[0], json.dumps(entry)]) + "\n")
        cache = DiskCache(path)
        assert cache.get(entry["key"]) is None


# -- the server: protocol, coalescing, sweep -------------------------------

class TestServer:
    def test_predict_select_sweep_roundtrip(self):
        with start_background_server() as background:
            with ServeClient(background.address) as client:
                assert client.ping()
                first = client.predict(**HEADLINE[0])
                assert first["tier"] == "cold"
                assert first["digest"] == _direct_digest(HEADLINE[0])
                assert client.predict(**HEADLINE[0])["tier"] == "memo"

                selection = client.select(
                    family="bcast", x=16384, iters=2,
                    candidates=["tree-shaddr", "tree-shmem"],
                )
                assert selection["selected"] in ("tree-shaddr", "tree-shmem")
                assert selection["table_choice"] == "tree-shaddr"
                assert len(selection["candidates"]) == 2
                # tree-shaddr was measured through the memo tier.
                tiers = {entry["algorithm"]: entry["tier"]
                         for entry in selection["candidates"]}
                assert tiers["tree-shaddr"] == "memo"

                sweep = client.sweep([
                    HEADLINE[0],                      # cached -> memo
                    {**HEADLINE[0], "x": 2048},       # computed in batch
                    HEADLINE[0],                      # duplicate -> memo
                ])
                tiers = [point["tier"] for point in sweep["points"]]
                assert tiers == ["memo", "batch", "memo"]
                assert (sweep["points"][0]["digest"]
                        == sweep["points"][2]["digest"])

                stats = client.stats()
                assert stats["tiers"]["memo"] >= 2
                assert stats["latency"]["count"] >= 4
                assert stats["server"]["inflight"] == 0

    def test_metrics_and_trace_ops_mirror_stats(self):
        with start_background_server() as background:
            with ServeClient(background.address) as client:
                client.predict(**HEADLINE[0])
                client.predict(**HEADLINE[0])  # memo hit
                client.sweep([HEADLINE[0], {**HEADLINE[0], "x": 2048}])
                stats = client.stats()
                metrics = client.request({"op": "metrics"})
                trace = client.request({"op": "trace"})
        # The stats op reads its counts from the registry's counters, so
        # the two views must agree exactly.
        counters = metrics["metrics"]["counters"]
        tier_counts = counters["serve_tier_answers_total"]
        for tier, count in stats["tiers"].items():
            assert tier_counts.get(f"tier={tier}", 0.0) == count
        assert (counters["serve_requests_total"]["op=predict"]
                == stats["requests"]["predict"])
        # ...and the Prometheus exposition parses back to the same
        # numbers (the scrape path of `repro serve --metrics-port`).
        parsed = parse_prometheus(metrics["exposition"])
        assert parsed["serve_tier_answers_total"] == {
            labels: float(value) for labels, value in tier_counts.items()
        }
        latency = metrics["metrics"]["histograms"][
            "serve_request_latency_seconds"
        ][""]
        assert latency["count"] >= 4
        # The trace op exposes the finished serve spans: the sweep query
        # span parents its compute-batch span within one trace.
        spans = trace["spans"]
        assert {"serve.predict", "serve.sweep"} <= {
            item["name"] for item in spans
        }
        sweeps = [item for item in spans if item["name"] == "serve.sweep"]
        batches = [item for item in spans
                   if item["name"] == "serve.sweep.batch"]
        assert any(
            batch["parent_id"] == sweep["span_id"]
            and batch["trace_id"] == sweep["trace_id"]
            for sweep in sweeps for batch in batches
        )

    def test_registry_is_the_store_without_a_scrape(self):
        service = PredictionService()
        with start_background_server(service) as background:
            with ServeClient(background.address) as client:
                client.predict(**HEADLINE[0])
                client.predict(**HEADLINE[0])  # memo hit
        # No stats or metrics op ran: every count is already current in
        # the service's registry, the one store --stats reads.
        registry = service.registry
        assert registry.counter("serve_requests_total").value(
            op="predict") == 2
        answers = registry.counter("serve_tier_answers_total")
        assert answers.value(tier="cold") == 1
        assert answers.value(tier="memo") == 1
        assert registry.counter("serve_memo_hits_total").value() == 1
        assert registry.counter("serve_memo_misses_total").value() == 1
        stats = service.stats_snapshot()
        assert stats["tiers"] == {"memo": 1, "disk": 0, "cold": 1,
                                  "batch": 0}
        counts = [*stats["tiers"].values(), stats["requests"]["predict"],
                  stats["coalesced"], stats["errors"],
                  stats["memo"]["hits"], stats["memo"]["misses"]]
        assert all(type(count) is int for count in counts)

    def test_request_latency_is_counted_once_per_request(self):
        service = PredictionService()
        with start_background_server(service) as background:
            with ServeClient(background.address) as client:
                client.predict(**HEADLINE[0])
                client.predict(**HEADLINE[0])  # memo hit
                client.predict(**HEADLINE[1])
                assert client.ping()
        stats = service.stats_snapshot()
        assert stats["latency"]["count"] == 4
        # The exposition's request histogram counts the same requests as
        # --stats; the per-tier samples go to their own histogram.
        registry = service.registry
        requests = registry.histogram("serve_request_latency_seconds")
        assert requests.summary()["count"] == stats["latency"]["count"]
        tiers = registry.histogram("serve_tier_latency_seconds")
        assert tiers.summary(tier="cold")["count"] == 2
        assert tiers.summary(tier="memo")["count"] == 1

    def test_sweep_batch_answers_bit_identical(self):
        with start_background_server() as background:
            with ServeClient(background.address) as client:
                sweep = client.sweep(list(HEADLINE))
                for query, point in zip(HEADLINE, sweep["points"]):
                    assert point["tier"] == "batch"
                    assert point["digest"] == _direct_digest(query)

    def test_malformed_queries_are_refused_not_fatal(self):
        with start_background_server() as background:
            with ServeClient(background.address) as client:
                with pytest.raises(ServeRequestError):
                    client.predict(family="nope", x=1)
                with pytest.raises(ServeRequestError):
                    client.predict(family="bcast", algorithm="tree-shaddr",
                                   x=4096, verify=True)
                with pytest.raises(ServeRequestError):
                    client.request({"op": "no-such-op"})
                # The connection and server both survive.
                assert client.ping()
                stats = client.stats()
                assert stats["errors"] == 3

    def test_container_family_is_a_query_error_on_the_wire(self):
        with start_background_server() as background:
            with ServeClient(background.address) as client:
                with pytest.raises(ServeRequestError) as refused:
                    client.predict(family=["bcast"], algorithm="tree-shaddr",
                                   x=4096)
                assert refused.value.error_type == "QueryError"
                assert "internal error" not in str(refused.value)

    def test_concurrent_duplicates_coalesce_to_one_simulation(self):
        service = PredictionService()
        calls = []
        release = threading.Event()
        original = service.compute

        def gated(spec):
            calls.append(spec)
            assert release.wait(timeout=30), "coalescing test never released"
            return original(spec)

        service.compute = gated
        query = {"family": "bcast", "algorithm": "tree-shaddr", "x": 4096,
                 "iters": 2}
        responses = []

        def ask():
            with ServeClient(background.address) as client:
                responses.append(client.predict(**query))

        with start_background_server(service) as background:
            threads = [threading.Thread(target=ask) for _ in range(3)]
            for thread in threads:
                thread.start()
            # stats runs on the event loop, so it stays answerable while
            # the compute thread is gated: wait until both riders have
            # provably coalesced onto the in-flight future.
            with ServeClient(background.address) as observer:
                deadline = time.time() + 30
                while time.time() < deadline:
                    if observer.stats()["coalesced"] == 2:
                        break
                    time.sleep(0.01)
                else:
                    release.set()
                    pytest.fail("riders never coalesced")
                release.set()
                for thread in threads:
                    thread.join(timeout=30)
                stats = observer.stats()

        assert len(calls) == 1, "duplicates ran extra simulations"
        assert stats["coalesced"] == 2
        assert stats["tiers"]["cold"] == 1
        assert len({r["digest"] for r in responses}) == 1
        assert sorted(bool(r.get("coalesced")) for r in responses) == [
            False, True, True,
        ]


    def test_stop_after_a_shutdown_request_is_a_no_op(self):
        """Regression: leaving the ``with`` block after a ``shutdown``
        request raised ``RuntimeError: Event loop is closed`` whenever the
        server thread had already closed its loop."""
        background = start_background_server()
        with ServeClient(background.address) as client:
            assert client.shutdown()["ok"]
        background.thread.join(timeout=30)
        assert not background.thread.is_alive()
        background.stop()


# -- the connection: framing, order, the memo fast path -------------------

def _line(request: dict) -> bytes:
    """One request line, spelled as :class:`ServeClient` spells it."""
    return json.dumps(request, sort_keys=True).encode("ascii") + b"\n"


@contextmanager
def _raw_connection(address):
    """A bare socket to a server and a reader of its response lines."""
    with socket.create_connection(address, timeout=120) as sock:
        with sock.makefile("rb") as responses:
            yield sock, responses


def _ask(connection, raw: bytes) -> bytes:
    sock, responses = connection
    sock.sendall(raw)
    return responses.readline()


class TestConnection:
    PREDICT = {**HEADLINE[0], "op": "predict"}
    OTHER = {**HEADLINE[0], "x": 2048, "op": "predict"}

    def test_requests_in_one_send_are_answered_in_order(self):
        with start_background_server() as background:
            with _raw_connection(background.address) as (sock, responses):
                sock.sendall(_line(self.PREDICT) + _line({"op": "ping"}))
                first = json.loads(responses.readline())
                second = json.loads(responses.readline())
                # a hit queued behind a miss waits for it
                sock.sendall(_line(self.PREDICT) + _line(self.OTHER)
                             + _line(self.PREDICT))
                batch = [json.loads(responses.readline()) for _ in range(3)]
        assert first["tier"] == "cold" and first["op"] == "predict"
        assert second == {"ok": True, "op": "ping", "pong": True}
        assert [(r["x"], r["tier"]) for r in batch] == [
            (16384, "memo"), (2048, "cold"), (16384, "memo"),
        ]

    def test_a_client_that_reads_late_gets_every_answer_in_order(
            self, monkeypatch):
        """Flow control: the server stops reading while its write buffer
        is full, and every answer still arrives, in order."""
        paused = threading.Event()
        pause_writing = server_module._Connection.pause_writing

        def noted(connection):
            paused.set()
            pause_writing(connection)

        monkeypatch.setattr(server_module._Connection, "pause_writing", noted)
        # some 18 MB of responses, past what the socket buffers hold
        hits = 20000
        line = _line(self.PREDICT)
        with start_background_server() as background:
            with socket.socket() as sock:
                # a small receive window, set before it is negotiated
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.settimeout(120)
                sock.connect(background.address)
                with sock.makefile("rb") as responses:
                    cold = _ask((sock, responses), line)
                    sender = threading.Thread(
                        target=sock.sendall,
                        args=(line * hits + _line({"op": "ping"}),),
                    )
                    sender.start()
                    assert paused.wait(timeout=60), "no back-pressure"
                    answers = [responses.readline() for _ in range(hits + 1)]
                    sender.join(timeout=60)
                    assert not sender.is_alive()
        assert json.loads(cold)["tier"] == "cold"
        assert len(set(answers[:-1])) == 1
        assert json.loads(answers[0])["tier"] == "memo"
        assert json.loads(answers[-1])["pong"] is True

    def test_a_request_split_over_three_sends_is_answered(self):
        line = _line(self.PREDICT)
        cuts = (0, len(line) // 3, 2 * len(line) // 3, len(line))
        tiers = []
        with start_background_server() as background:
            with _raw_connection(background.address) as (sock, responses):
                for _ in range(2):  # a miss, then a memo hit
                    for start, end in zip(cuts, cuts[1:]):
                        sock.sendall(line[start:end])
                        time.sleep(0.05)
                    response = json.loads(responses.readline())
                    tiers.append(response["tier"])
        assert tiers == ["cold", "memo"]
        assert response["digest"] == _direct_digest(HEADLINE[0])

    def test_an_overlong_line_is_refused_and_closes_the_connection(self):
        with start_background_server() as background:
            with _raw_connection(background.address) as (sock, responses):
                sock.sendall(_line({"op": "ping"}))
                sock.sendall(b"x" * (MAX_REQUEST_BYTES + 1))
                pong = json.loads(responses.readline())
                refusal = json.loads(responses.readline())
                assert responses.readline() == b""  # closed by the server
            with ServeClient(background.address) as client:
                assert client.ping()  # the server itself lives on
        assert pong["pong"] is True
        assert refusal == {
            "ok": False,
            "error": f"request line exceeds {MAX_REQUEST_BYTES} bytes",
        }

    def test_a_memo_hit_line_is_the_general_paths_line(self):
        with start_background_server() as background:
            with _raw_connection(background.address) as connection:
                cold = _ask(connection, _line(self.PREDICT))
                hit = _ask(connection, _line(self.PREDICT))
                # the same query spelled otherwise, and with an id
                respelled = _ask(connection,
                                 json.dumps(self.PREDICT).encode() + b"\n")
                tagged = _ask(connection, _line({**self.PREDICT, "id": 7}))
        assert json.loads(cold)["tier"] == "cold"
        assert json.loads(hit)["tier"] == "memo"
        assert hit == respelled
        response = json.loads(tagged)
        assert response.pop("id") == 7
        assert _encode(response) == hit

    def test_a_repeated_line_is_answered_without_the_dispatcher(self):
        service = PredictionService()
        span_store().clear()
        with start_background_server(service) as background:
            dispatched = []
            dispatch = background.server._dispatch_line

            async def counted(line):
                dispatched.append(line)
                return await dispatch(line)

            background.server._dispatch_line = counted
            with _raw_connection(background.address) as connection:
                _ask(connection, _line(self.PREDICT))
                fast = [_ask(connection, _line(self.PREDICT))
                        for _ in range(3)]
                general = _ask(connection,
                               json.dumps(self.PREDICT).encode() + b"\n")
                trace = json.loads(_ask(connection, _line({"op": "trace"})))
        assert len(dispatched) == 3  # the miss, the respelled hit, trace
        assert set(fast) == {general}
        stats = service.stats_snapshot()
        assert stats["tiers"] == {"memo": 4, "disk": 0, "cold": 1,
                                  "batch": 0}
        assert stats["requests"] == {"predict": 5, "trace": 1}
        assert (stats["memo"]["hits"], stats["memo"]["misses"]) == (4, 1)
        assert stats["latency"]["count"] == 6
        assert stats["latency_by_tier"]["memo"]["count"] == 4
        # one serve.predict span per predict, a fast hit's like any hit's
        predicts = [item for item in trace["spans"]
                    if item["name"] == "serve.predict"]
        assert len(predicts) == 5
        hit_attrs = {"family": "bcast", "algorithm": "tree-shaddr",
                     "x": 16384, "tier": "memo", "coalesced": False}
        assert [item["attrs"] for item in predicts[1:]] == [hit_attrs] * 4
        assert len({item["span_id"] for item in predicts}) == 5
        assert all(len(item["span_id"]) == 16 and len(item["trace_id"]) == 32
                   for item in predicts)

    def test_a_mapped_line_whose_answer_was_evicted_misses_once(self):
        service = PredictionService(max_memo=1)
        with start_background_server(service) as background:
            with _raw_connection(background.address) as connection:
                tiers = [
                    json.loads(_ask(connection, _line(request)))["tier"]
                    for request in (
                        self.PREDICT, self.PREDICT,
                        {**self.OTHER, "id": "evicts"},
                        self.PREDICT,
                    )
                ]
        assert tiers == ["cold", "memo", "cold", "cold"]
        memo = service.memo.stats()
        assert (memo["hits"], memo["misses"]) == (1, 3)
        assert memo["evictions"] == 2

    def test_flipping_the_solver_mode_gives_a_second_key(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_SLOWPATH", raising=False)
        line = _line(self.PREDICT)
        with start_background_server() as background:
            with _raw_connection(background.address) as connection:
                incremental = json.loads(_ask(connection, line))
                monkeypatch.setenv("REPRO_SIM_SLOWPATH", "1")
                slowpath = json.loads(_ask(connection, line))
                again = json.loads(_ask(connection, line))
        assert incremental["key"] != slowpath["key"] == again["key"]
        assert [incremental["tier"], slowpath["tier"], again["tier"]] == [
            "cold", "cold", "memo",
        ]
        assert incremental["elapsed_us"] == slowpath["elapsed_us"]

    def test_a_refused_solver_variable_fails_the_request_not_the_line(
            self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_SLOWPATH", raising=False)
        line = _line(self.PREDICT)
        with start_background_server() as background:
            with _raw_connection(background.address) as connection:
                _ask(connection, line)
                assert json.loads(_ask(connection, line))["tier"] == "memo"
                monkeypatch.setenv("REPRO_SIM_SLOWPATH", "maybe")
                refused = json.loads(_ask(connection, line))
                pong = json.loads(_ask(connection, _line({"op": "ping"})))
                monkeypatch.delenv("REPRO_SIM_SLOWPATH")
                again = json.loads(_ask(connection, line))
        assert refused["ok"] is False
        assert refused["error_type"] == "ValueError"
        assert "REPRO_SIM_SLOWPATH" in refused["error"]
        assert pong["pong"] is True
        assert again["tier"] == "memo"


# -- client ----------------------------------------------------------------

class TestClient:
    def test_parse_address(self):
        assert parse_address("localhost:8766") == ("localhost", 8766)
        assert parse_address(("h", 1)) == ("h", 1)
        with pytest.raises(ValueError):
            parse_address("no-port")
        with pytest.raises(ValueError):
            parse_address("host:not-a-number")

    def test_reconnect_after_server_restart(self, tmp_path):
        cache = str(tmp_path / "serve.cache")
        query = {"family": "bcast", "algorithm": "tree-shaddr", "x": 4096,
                 "iters": 2}
        first_server = start_background_server(
            PredictionService(cache_path=cache),
        )
        host, port = first_server.address
        client = ServeClient((host, port))
        first = client.predict(**query)
        first_server.stop()
        # Same port, fresh process state: the persistent cache answers
        # without re-simulating, and the client reconnects transparently.
        second_server = start_background_server(
            PredictionService(cache_path=cache), port=port,
        )
        try:
            response = client.predict(**query)
        finally:
            client.close()
            second_server.stop()
        assert response["tier"] == "disk"
        assert response["digest"] == first["digest"]


# -- the check-bench entry:sweep views -------------------------------------

class TestBenchSweepViews:
    def _bench(self):
        points = [{"x": 4096, "elapsed_us": 100.0},
                  {"x": 8192, "elapsed_us": 200.0}]
        return {"entries": {"serve": {
            "smoke": False,
            "solver": "incremental",
            "sweeps": {
                "cold": {"solver": "incremental",
                         "points": [dict(p) for p in points]},
                "memo": {"solver": "incremental",
                         "points": [dict(p) for p in points]},
            },
        }}}

    def test_identical_sweeps_gate_clean_at_zero_tolerance(self):
        assert compare_bench(self._bench(), "serve:cold", "serve:memo",
                             tolerance=0.0) == []

    def test_drift_between_sweeps_is_reported(self):
        bench = self._bench()
        bench["entries"]["serve"]["sweeps"]["memo"]["points"][1][
            "elapsed_us"] = 201.0
        drifts = compare_bench(bench, "serve:cold", "serve:memo",
                               tolerance=0.0)
        assert len(drifts) == 1 and "x=8192" in drifts[0]

    def test_unknown_sweep_label_is_an_error(self):
        drifts = compare_bench(self._bench(), "serve:cold", "serve:nope")
        assert drifts and "no sweep 'nope'" in drifts[0]

    def test_plain_entry_labels_still_work(self):
        bench = self._bench()
        bench["entries"]["other"] = json.loads(
            json.dumps(bench["entries"]["serve"]),
        )
        assert compare_bench(bench, "serve", "other", tolerance=0.0) == []


# -- CLI -------------------------------------------------------------------

class TestServeCli:
    def test_query_and_stats_commands(self, capsys):
        from repro.cli import main as cli_main

        with start_background_server() as background:
            host, port = background.address
            address = f"{host}:{port}"
            status = cli_main([
                "query", address, "--family", "bcast",
                "--algorithm", "tree-shaddr", "--size", "4K", "--iters", "2",
            ])
            assert status == 0
            response = json.loads(capsys.readouterr().out)
            assert response["tier"] == "cold" and response["x"] == 4096

            status = cli_main(["query", address, "--op", "ping"])
            assert status == 0
            assert json.loads(capsys.readouterr().out)["pong"] is True

            # A refused query is exit 1, not a traceback.
            status = cli_main([
                "query", address, "--family", "bcast",
                "--algorithm", "tree-shaddr", "--size", "4K",
                "--json", '{"op": "predict", "family": "bogus", "x": 1}',
            ])
            assert status == 1
            assert "refused" in capsys.readouterr().err

            status = cli_main(["serve", "--stats", address])
            assert status == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["tiers"]["cold"] == 1

    def test_query_unreachable_server_is_exit_2(self, capsys):
        from repro.cli import main as cli_main

        status = cli_main(["query", "127.0.0.1:1", "--op", "ping",
                           "--timeout", "2"])
        assert status == 2
        assert "cannot reach" in capsys.readouterr().err
