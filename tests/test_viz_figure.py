"""SVG figure backend."""

import numpy as np
import pytest

from repro.viz import Figure
from repro.viz.figure import nice_ticks


class TestNiceTicks:
    def test_covers_range(self):
        t = nice_ticks(0.0, 10.0)
        assert t[0] >= 0.0 and t[-1] <= 10.0
        assert 3 <= len(t) <= 7

    def test_one_two_five_steps(self):
        t = nice_ticks(0, 100)
        step = t[1] - t[0]
        mantissa = step / 10 ** np.floor(np.log10(step))
        assert mantissa in (1.0, 2.0, 5.0)

    def test_degenerate_range(self):
        t = nice_ticks(5.0, 5.0)
        assert len(t) >= 2

    def test_non_finite(self):
        t = nice_ticks(float("nan"), float("inf"))
        assert len(t) == 2


class TestFigure:
    def test_line_plot_svg_valid(self):
        fig = Figure()
        fig.axes(0).plot([0, 1, 2], [1.0, 4.0, 9.0], label="a")
        svg = fig.to_svg()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg

    def test_legend_only_with_two_series(self):
        fig = Figure()
        ax = fig.axes(0)
        ax.plot([0, 1], [0, 1], label="only")
        single = fig.to_svg()
        ax.plot([0, 1], [1, 0], label="second")
        double = fig.to_svg()
        assert "only" not in single       # one series: no legend box
        assert "only" in double and "second" in double

    def test_series_colors_fixed_order(self):
        fig = Figure()
        ax = fig.axes(0)
        ax.plot([0, 1], [0, 1])
        ax.plot([0, 1], [1, 2])
        svg = fig.to_svg()
        assert "#2a78d6" in svg  # slot 1 blue
        assert "#1baf7a" in svg  # slot 2 aqua

    def test_scatter(self):
        fig = Figure()
        fig.axes(0).scatter(np.arange(10), np.arange(10) ** 2)
        assert fig.to_svg().count("<circle") >= 10

    def test_scatter_length_mismatch(self):
        with pytest.raises(ValueError):
            Figure().axes(0).scatter([1, 2], [1])

    def test_hist_bars(self):
        fig = Figure()
        fig.axes(0).hist(np.random.default_rng(0).normal(size=500), bins=10)
        assert fig.to_svg().count("<rect") >= 10

    def test_log_scale(self):
        fig = Figure()
        ax = fig.axes(0)
        ax.plot([1, 2, 3], [10.0, 1e3, 1e6])
        ax.set_yscale("log")
        svg = fig.to_svg()
        assert "e+" in svg or "1e" in svg or "100000" not in svg  # log ticks formatted

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            Figure().axes(0).set_yscale("sqrt")

    def test_errorbar(self):
        fig = Figure()
        fig.axes(0).errorbar([0, 1], [1.0, 2.0], [0.1, 0.2])
        assert fig.to_svg().count("<line") > 2

    def test_heatmap_uses_sequential_ramp(self):
        fig = Figure()
        fig.axes(0).heatmap(np.arange(9).reshape(3, 3).astype(float))
        svg = fig.to_svg()
        assert "#cde2fb" in svg or "#0d366b" in svg  # ramp endpoints sampled

    def test_heatmap_requires_2d(self):
        with pytest.raises(ValueError):
            Figure().axes(0).heatmap(np.arange(3))

    def test_labels_and_title_rendered(self):
        fig = Figure()
        ax = fig.axes(0)
        ax.title = "Halo counts"
        ax.set_xlabel("timestep")
        ax.set_ylabel("count")
        ax.plot([0, 1], [0, 1])
        svg = fig.to_svg()
        for text in ("Halo counts", "timestep", "count"):
            assert text in svg

    def test_multi_panel(self):
        fig = Figure(rows=1, cols=2)
        fig.axes(0).plot([0, 1], [0, 1])
        fig.axes(1).scatter([0, 1], [1, 0])
        svg = fig.to_svg()
        assert "polyline" in svg and "circle" in svg

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            Figure(rows=0)

    def test_save(self, tmp_path):
        fig = Figure()
        fig.axes(0).plot([0, 1], [0, 1])
        nbytes = fig.save(tmp_path / "f.svg")
        assert (tmp_path / "f.svg").stat().st_size == nbytes

    def test_nan_points_skipped(self):
        fig = Figure()
        fig.axes(0).plot([0, 1, 2], [1.0, np.nan, 3.0])
        fig.to_svg()  # must not raise

    def test_xml_escaping(self):
        fig = Figure()
        ax = fig.axes(0)
        ax.title = "a < b & c"
        ax.plot([0, 1], [0, 1])
        svg = fig.to_svg()
        assert "a &lt; b &amp; c" in svg


def test_svg_escaping_matches_saxutils():
    """``svg.escape`` / ``svg.quoteattr`` replaced the ``xml.sax.saxutils``
    pair (which imports urllib.request and the http/ssl stack with it):
    the figures recorded in a trail must not change by a byte."""
    import itertools
    from xml.sax import saxutils

    from repro.viz import svg

    alphabet = ["a", "&", "<", ">", '"', "'", "\n", "\r", "\t", "&amp;", " "]
    for n in range(4):
        for combo in itertools.product(alphabet, repeat=n):
            text = "".join(combo)
            assert svg.escape(text) == saxutils.escape(text)
            assert svg.quoteattr(text) == saxutils.quoteattr(text)
