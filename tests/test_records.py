"""The durable record log (``repro.util.records``).

One test per rule of the log's contract: what a replay trusts, what
``repair`` cuts, that nothing is appended after untrusted bytes, that a
packed payload's digest is checked on the way out, and that a stored
result is unpickled with the result types' allowlist only.
"""

import json
import os
import pickle

import pytest

from repro.bench.parallel import run_point
from repro.util.records import (
    RecordLog,
    pack,
    pickle_digest,
    restricted_loads,
    unpack,
)

#: calls of :func:`_tripwire`; a restricted read must never add one
_TRIPPED = []


def _tripwire(*args):
    _TRIPPED.append(args)


class _Doctored:
    """Pickles as a call of ``_tripwire``: what a doctored file holds."""

    def __reduce__(self):
        return (_tripwire, ("doctored",))


def _write(path, text):
    with open(path, "w") as handle:
        handle.write(text)


def _replayed(path, apply=None):
    records = []

    def collect(record):
        if apply is not None:
            apply(record)
        records.append(record)

    valid_bytes, torn = RecordLog(path).replay(collect)
    return records, valid_bytes, torn


class TestReplay:
    def test_missing_file_replays_empty(self, tmp_path):
        assert _replayed(str(tmp_path / "absent.jsonl")) == ([], 0, False)

    def test_newline_less_final_line_is_torn_even_when_it_parses(
            self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        _write(path, '{"n": 0}\n{"n": 1}')
        assert _replayed(path) == ([{"n": 0}], len('{"n": 0}\n'), True)

    @pytest.mark.parametrize("line", ["[1, 2]", '"oops"', "7", "null",
                                      '{"n": 1'])
    def test_a_non_object_or_unparsable_line_ends_the_prefix(
            self, tmp_path, line):
        path = str(tmp_path / "log.jsonl")
        _write(path, f'{{"n": 0}}\n{line}\n{{"n": 2}}\n')
        assert _replayed(path) == ([{"n": 0}], len('{"n": 0}\n'), True)

    @pytest.mark.parametrize("error", [ValueError, KeyError, TypeError])
    def test_an_apply_that_raises_ends_the_prefix(self, tmp_path, error):
        path = str(tmp_path / "log.jsonl")
        _write(path, '{"n": 0}\n{"n": 1}\n{"n": 2}\n')

        def apply(record):
            if record["n"] == 1:
                raise error("rejected by the owner")

        assert _replayed(path, apply) == (
            [{"n": 0}], len('{"n": 0}\n'), True,
        )


class TestAppend:
    def test_append_writes_sorted_json_lines(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        log = RecordLog(path)
        log.append({"b": 1, "a": [2]})
        log.close()
        with open(path) as handle:
            assert handle.read() == '{"a": [2], "b": 1}\n'

    def test_repair_cuts_exactly_the_untrusted_tail(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        _write(path, '{"n": 0}\n{"n": 1}\n{"n": 2')
        def trust_only_the_first(record):
            if record["n"] != 0:
                raise ValueError("untrusted")

        valid_bytes, torn = RecordLog(path).replay(trust_only_the_first)
        assert (valid_bytes, torn) == (len('{"n": 0}\n'), True)
        RecordLog(path).repair(valid_bytes)
        with open(path) as handle:
            assert handle.read() == '{"n": 0}\n'
        RecordLog(path).repair(valid_bytes)  # nothing left to cut
        assert os.path.getsize(path) == valid_bytes
        RecordLog(str(tmp_path / "absent.jsonl")).repair(0)  # no file: no-op
        assert not (tmp_path / "absent.jsonl").exists()

    def test_a_record_appended_after_a_torn_tail_replays(self, tmp_path):
        """The owner's order: replay, repair to the trusted prefix, then
        append."""
        path = str(tmp_path / "log.jsonl")
        _write(path, '{"n": 0}\n{"n": 1, "da')
        log = RecordLog(path)
        log.repair(log.replay(lambda record: None)[0])
        log.append({"n": 2})
        log.append({"n": 3})
        log.close()
        assert _replayed(path) == (
            [{"n": 0}, {"n": 2}, {"n": 3}], os.path.getsize(path), False,
        )


class TestPayloads:
    def test_pack_round_trips_and_matches_pickle_digest(self):
        value = {"x": [1, 2.5, "three"]}
        data = pickle.dumps(value, protocol=4)
        record = json.loads(json.dumps(pack(data)))
        assert record["digest"] == pickle_digest(value)
        assert unpack(record) == data

    def test_unpack_rejects_a_digest_mismatch(self):
        record = pack(pickle.dumps(1, protocol=4))
        record["digest"] = "0" * 64
        with pytest.raises(ValueError, match="digest mismatch"):
            unpack(record)

    def test_restricted_loads_reads_every_result_shape(self):
        result = run_point({"family": "bcast", "algorithm": "tree-shaddr",
                            "x": 4096})
        for value in (result, (0.25, result), {"ok": [1, 2.5, "x"]}, 7):
            data = pickle.dumps(value, protocol=4)
            assert pickle.dumps(restricted_loads(data), protocol=4) == data

    def test_restricted_loads_refuses_any_other_global_uncalled(self):
        del _TRIPPED[:]
        with pytest.raises(pickle.UnpicklingError, match="may not reference"):
            restricted_loads(pickle.dumps(_Doctored(), protocol=4))
        assert _TRIPPED == []
