"""Zero-copy buffer comparison helpers.

Payload verification compares multi-megabyte buffers after every chaos
attempt; materializing ``bytes`` copies (``tobytes()``/``bytes(...)``)
just to compare them doubles the memory traffic.  :func:`same_bytes`
compares through the buffer protocol instead: two C-contiguous arrays are
wrapped in :class:`memoryview` objects cast to bytes and compared in C,
with no intermediate copy.
"""

from __future__ import annotations


def same_bytes(a, b) -> bool:
    """Byte-wise equality of two array-likes without copying either.

    Identical objects short-circuit to ``True`` in O(1).  C-contiguous
    buffers (the common case: freshly built payloads and result buffers)
    are compared as cast ``memoryview`` objects — a C-level scan, zero
    allocation.  Non-contiguous views fall back to
    :func:`numpy.array_equal` on their byte reinterpretation.
    """
    if a is b:
        return True
    import numpy as np

    a = np.asarray(a)
    b = np.asarray(b)
    if a.nbytes != b.nbytes:
        return False
    if not a.flags["C_CONTIGUOUS"]:
        a = np.ascontiguousarray(a)
    if not b.flags["C_CONTIGUOUS"]:
        b = np.ascontiguousarray(b)
    return memoryview(a).cast("B") == memoryview(b).cast("B")
