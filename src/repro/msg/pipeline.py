"""Chunking helpers for software pipelining.

The shared-address schemes pipeline in units of the *pipeline width*
(``Pwidth`` in section V-C-2): the network stage hands off to the intra-node
stage chunk by chunk through message counters.  A :class:`ChunkPlan` gives
both the chunk sizes and their byte offsets, so algorithms can slice real
payload buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.hardware.tree import split_chunks


@dataclass(frozen=True)
class ChunkPlan:
    """Chunk sizes plus offsets for one contiguous byte range."""

    total: int
    chunk_bytes: int
    sizes: Tuple[int, ...]

    @classmethod
    def build(cls, nbytes: int, chunk_bytes: int) -> "ChunkPlan":
        return cls(nbytes, chunk_bytes, tuple(split_chunks(nbytes, chunk_bytes)))

    @property
    def nchunks(self) -> int:
        return len(self.sizes)

    def offset(self, k: int) -> int:
        """Byte offset of chunk ``k`` within the range."""
        if not 0 <= k < self.nchunks:
            raise IndexError(f"chunk index {k} out of range")
        return k * self.chunk_bytes

    def slices(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(k, offset, size)`` triples in order."""
        for k, size in enumerate(self.sizes):
            yield k, k * self.chunk_bytes, size
