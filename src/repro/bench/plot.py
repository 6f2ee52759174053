"""Terminal (ASCII) charts for regenerated figures.

Renders the experiment series the way the paper's figures look — bandwidth
or latency against a log2 message-size axis — using plain characters, so
``python -m repro figure fig10 --plot`` works anywhere.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.bench.report import Series
from repro.util.units import format_bytes

#: glyph per series, reused cyclically
_GLYPHS = "ox+*#@%&"


def render_chart(
    x_values: Sequence[int],
    series: Sequence[Series],
    width: int = 64,
    height: int = 18,
    y_label: str = "MB/s",
    x_format: str = "bytes",
) -> str:
    """Render series as an ASCII scatter/line chart.

    The x axis is log2-scaled (message sizes, element counts); y is linear
    from zero to a padded maximum.
    """
    if not series or not x_values:
        raise ValueError("nothing to plot")
    if any(len(s.values) != len(x_values) for s in series):
        raise ValueError("series length mismatch against x values")
    if width < 16 or height < 5:
        raise ValueError("chart too small")

    lo, hi = math.log2(x_values[0]), math.log2(x_values[-1])

    def x_pos(x: float) -> float:
        if hi == lo:
            return 0.0
        return (math.log2(x) - lo) / (hi - lo)

    y_max = max(max(s.values) for s in series)
    y_max = y_max * 1.05 if y_max > 0 else 1.0
    grid: List[List[str]] = [
        [" "] * width for _ in range(height)
    ]
    # Plot points, connecting consecutive ones with linear interpolation.
    for si, s in enumerate(series):
        glyph = _GLYPHS[si % len(_GLYPHS)]
        points = [
            (
                int(round(x_pos(x) * (width - 1))),
                int(round((1.0 - v / y_max) * (height - 1))),
            )
            for x, v in zip(x_values, s.values)
        ]
        for (c0, r0), (c1, r1) in zip(points, points[1:]):
            steps = max(abs(c1 - c0), abs(r1 - r0), 1)
            for t in range(steps + 1):
                c = round(c0 + (c1 - c0) * t / steps)
                r = round(r0 + (r1 - r0) * t / steps)
                grid[r][c] = glyph
        for c, r in points:
            grid[r][c] = glyph

    # Assemble with a y-axis gutter and x-axis ticks.
    gutter = 10
    lines: List[str] = []
    for r, row in enumerate(grid):
        if r == 0:
            label = f"{y_max:9.0f}"
        elif r == height - 1:
            label = f"{0:9.0f}"
        elif r == height // 2:
            label = f"{y_max / 2:9.0f}"
        else:
            label = " " * 9
        lines.append(f"{label} |" + "".join(row))
    lines.append(" " * gutter + "+" + "-" * width)
    # X tick labels at ends and middle.
    def fmt(x: int) -> str:
        return format_bytes(x) if x_format == "bytes" else str(x)

    left, mid, right = (
        fmt(x_values[0]),
        fmt(x_values[len(x_values) // 2]),
        fmt(x_values[-1]),
    )
    axis = [" "] * (width + 1)

    def place(text: str, center: int) -> None:
        start = max(0, min(len(axis) - len(text), center - len(text) // 2))
        for i, ch in enumerate(text):
            axis[start + i] = ch

    place(left, 0)
    place(mid, width // 2)
    place(right, width)
    lines.append(" " * (gutter + 1) + "".join(axis))
    legend = "   ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]} {s.label}" for i, s in enumerate(series)
    )
    lines.append("")
    lines.append(f"   y: {y_label}    {legend}")
    return "\n".join(lines)
