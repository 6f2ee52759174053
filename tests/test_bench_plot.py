"""Tests for the ASCII chart renderer."""

import pytest

from repro.bench.plot import render_chart
from repro.bench.report import Series


def simple_chart(**kwargs):
    xs = [1024, 2048, 4096]
    s = Series("demo", [10.0, 20.0, 15.0])
    return render_chart(xs, [s], **kwargs)


class TestRenderChart:
    def test_contains_legend_and_axes(self):
        text = simple_chart()
        assert "o demo" in text
        assert "1K" in text and "4K" in text
        assert "MB/s" in text

    def test_custom_y_label(self):
        assert "latency" in simple_chart(y_label="latency (us)")

    def test_multiple_series_distinct_glyphs(self):
        xs = [1024, 4096]
        a = Series("A", [5.0, 10.0])
        b = Series("B", [1.0, 2.0])
        text = render_chart(xs, [a, b])
        assert "o A" in text and "x B" in text
        assert "o" in text and "x" in text

    def test_count_x_format(self):
        xs = [16384, 524288]
        text = render_chart(
            xs, [Series("n", [1.0, 2.0])], x_format="count"
        )
        assert "16384" in text

    def test_peak_on_top_row(self):
        """The maximum value lands in the upper region of the grid."""
        xs = [1024, 2048, 4096, 8192]
        s = Series("peak", [1.0, 100.0, 1.0, 1.0])
        lines = render_chart(xs, [s], height=10).splitlines()
        # The first grid row carries the y-max label and, near the peak
        # column, the glyph within the top two rows.
        top_two = "".join(lines[0:2])
        assert "o" in top_two

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_chart([1, 2], [Series("s", [1.0])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_chart([], [])

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            simple_chart(width=4)
