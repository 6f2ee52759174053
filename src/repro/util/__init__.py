"""Utility helpers shared across the repro package.

This subpackage deliberately has no dependencies on the simulator or the
hardware models so that every other layer may import it freely.
"""

from repro.util.units import (
    KIB,
    MIB,
    GIB,
    US,
    MS,
    S,
    format_bytes,
    format_time_us,
    parse_size,
    bandwidth_mbs,
)
from repro.util.buffers import same_bytes

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "US",
    "MS",
    "S",
    "format_bytes",
    "format_time_us",
    "parse_size",
    "bandwidth_mbs",
    "same_bytes",
]
