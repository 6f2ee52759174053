"""Durable records: the fsynced JSONL log behind the sweep farm's
journal and the serve disk cache, the pickle digests they carry, and
the one unpickler their payloads are read back with.

Stdlib only, like the rest of :mod:`repro.util`.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import os
import pickle
from typing import Callable, Tuple

#: pinned so pickles of one result made by different processes byte-compare
PICKLE_PROTOCOL = 4


def pickle_digest(obj) -> str:
    """SHA-256 over the pinned-protocol pickle of ``obj``: the digest the
    farm journals results under and every served answer carries."""
    return hashlib.sha256(
        pickle.dumps(obj, protocol=PICKLE_PROTOCOL)
    ).hexdigest()


def pack(data: bytes) -> dict:
    """The ``digest`` and ``data`` fields that carry a pickle in a record."""
    return {
        "digest": hashlib.sha256(data).hexdigest(),
        "data": base64.b64encode(data).decode("ascii"),
    }


def unpack(record: dict) -> bytes:
    """The payload of a :func:`pack` record; ``ValueError`` if its digest
    does not match."""
    data = base64.b64decode(record["data"])
    if hashlib.sha256(data).hexdigest() != record["digest"]:
        raise ValueError("digest mismatch")
    return data


#: the only globals a stored result may reference: results are
#: CollectiveResult + RunManifest + builtin values, nothing else
_UNPICKLE_ALLOWED = {
    ("repro.collectives.base", "CollectiveResult"),
    ("repro.telemetry.manifest", "RunManifest"),
}


class _RestrictedUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if (module, name) in _UNPICKLE_ALLOWED:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"stored results may not reference {module}.{name}"
        )


def restricted_loads(data: bytes):
    """Unpickle a stored result, refusing any global outside the
    allowlist.  A digest only proves that a payload matches its own
    record, so a doctored journal or cache file must not escalate a read
    into code execution."""
    return _RestrictedUnpickler(io.BytesIO(data)).load()


class RecordLog:
    """An append-only JSONL file of JSON objects, fsynced per record.

    :meth:`replay` trusts a prefix of the file.  It ends at the first
    line that lacks its newline (only ``record + "\\n"`` is ever
    written, so the write was cut short), does not parse, is not an
    object, or makes the owner's ``apply`` raise ``ValueError``,
    ``KeyError`` or ``TypeError``.  Appends are strictly ordered, so
    whatever follows an untrusted line postdates the crash that made it.

    Nothing is ever appended after untrusted bytes: before the first
    append, the owner cuts the file back to the prefix its replay
    trusted with :meth:`repair`.  :meth:`append` itself never cuts.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = None

    def replay(self, apply: Callable[[dict], None]) -> Tuple[int, bool]:
        """Pass each record of the trusted prefix to ``apply``; returns
        ``(valid_bytes, torn)``, the prefix's length and whether anything
        follows it.  A missing file replays empty."""
        valid_bytes = 0
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return 0, False
        with handle:
            for line in handle:
                try:
                    if not line.endswith(b"\n"):
                        raise ValueError("torn line: no newline")
                    if line.strip():
                        record = json.loads(line)
                        if not isinstance(record, dict):
                            raise TypeError("record is not a JSON object")
                        apply(record)
                except (ValueError, KeyError, TypeError):
                    return valid_bytes, True
                valid_bytes += len(line)
        return valid_bytes, False

    def repair(self, valid_bytes: int) -> None:
        """Cut the file back to its first ``valid_bytes`` bytes."""
        try:
            with open(self.path, "rb+") as handle:
                if handle.seek(0, os.SEEK_END) > valid_bytes:
                    handle.truncate(valid_bytes)
                    os.fsync(handle.fileno())
        except FileNotFoundError:
            pass

    def append(self, record: dict) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
