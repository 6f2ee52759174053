"""Unit tests for the shared staging segment."""

import numpy as np
import pytest

from repro.hardware import Machine, Mode
from repro.kernel.shmem import SharedSegment


def machine():
    m = Machine(torus_dims=(1, 1, 1), mode=Mode.QUAD)
    m.set_working_set(4096)
    return m


class TestSharedSegment:
    def test_holds_real_bytes(self):
        m = machine()
        seg = SharedSegment(m, 64)
        seg.buffer[:4] = np.frombuffer(b"abcd", dtype=np.uint8)
        assert bytes(seg.buffer[:4]) == b"abcd"

    def test_buffer_is_allocated_on_first_use(self):
        # Timing-only runs build segments and never touch their bytes.
        seg = SharedSegment(machine(), 1 << 20)
        assert seg._buffer is None
        seg.buffer[8:12] = np.frombuffer(b"wxyz", dtype=np.uint8)
        assert seg.buffer is seg._buffer
        assert seg.buffer.nbytes == 1 << 20
        assert bytes(seg.buffer[4:12]) == b"\0\0\0\0wxyz"

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SharedSegment(machine(), 0)
