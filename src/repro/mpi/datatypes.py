"""MPI-ish datatypes mapped onto numpy dtypes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Datatype:
    """An element type: a name plus the backing numpy dtype."""

    name: str
    np_dtype: np.dtype

    @property
    def itemsize(self) -> int:
        return self.np_dtype.itemsize

    def __str__(self) -> str:
        return self.name


UINT8 = Datatype("MPI_BYTE", np.dtype(np.uint8))
INT32 = Datatype("MPI_INT", np.dtype(np.int32))
INT64 = Datatype("MPI_LONG_LONG", np.dtype(np.int64))
FLOAT = Datatype("MPI_FLOAT", np.dtype(np.float32))
DOUBLE = Datatype("MPI_DOUBLE", np.dtype(np.float64))

_ALL = {d.name: d for d in (UINT8, INT32, INT64, FLOAT, DOUBLE)}


def lookup(name: str) -> Datatype:
    """Datatype by MPI name (e.g. ``"MPI_DOUBLE"``)."""
    if name not in _ALL:
        raise KeyError(f"unknown datatype {name!r}; known: {sorted(_ALL)}")
    return _ALL[name]
