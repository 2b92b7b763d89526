import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zesolver import svgplot
from zesolver.cli import main
from zesolver.svgplot import SvgPlot, _points_text

README_CONFIG = """\
[mixture]
mu1 = 5
mu2 = 8
q1 = 2
q2 = 10
x1 = -1
x2 = 1

[output]
times = 0.01, 0.05
samples = 1024

[fv]
cells = 1000
cfl = 0.45
x_min = -3
x_max = 7
"""


def _reference_points(pixels):
    """The polyline text as one "%.2f,%.2f" format per point writes it."""
    values = np.asarray(pixels, dtype=float).tolist()
    return " ".join(["%.2f,%.2f"] * (len(values) // 2)) % tuple(values)


def _steps(v, n):
    """v moved n floats up (n > 0) or down (n < 0)."""
    for _ in range(abs(n)):
        v = float(np.nextafter(v, np.inf if n > 0 else -np.inf))
    return v


_LIMIT = 2.0**20 / 100  # the digit path's domain is 0 <= v < 2**20 / 100
_HALF_CENT = st.integers(0, 2 * 800 * 100).map(lambda j: (j + 0.5) / 100)
# Values the digit path writes: anything in its domain clear of the ties.
_DIGITS = st.one_of(
    st.floats(0.0, 800.0),
    st.floats(0.0, _LIMIT, exclude_max=True),
    st.integers(0, 4 * 800).map(lambda j: j / 4),
    st.builds(lambda v, d: v + d, _HALF_CENT,
              st.sampled_from([-1e-9, -2e-11, 2e-11, 1e-9, 1e-7])),
    st.builds(lambda n: _steps(_LIMIT, n), st.integers(-3, -1)),
)
# Values that send a series to the % formatter.
_PERCENT = st.one_of(
    st.integers(0, 4 * 800).map(lambda j: (2 * j + 1) / 8),  # exact ties
    st.builds(_steps, _HALF_CENT, st.integers(-3, 3)),
    st.sampled_from(
        [-0.0, -1.5, -1e-300, np.nan, np.inf, -np.inf, _LIMIT, _steps(_LIMIT, 1), 1e6]
    ),
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(values=st.lists(_DIGITS, min_size=2, max_size=40),
       other=st.none() | _PERCENT, where=st.integers(0, 39))
def test_points_text_matches_percent_format(values, other, where):
    if other is not None:
        values[where % len(values)] = other
    if len(values) % 2:
        values.pop()
    pixels = np.array(values)
    assert _points_text(pixels) == _reference_points(pixels)


@pytest.fixture(scope="module")
def readme_plots(tmp_path_factory):
    """The SvgPlots the README `profile` and `compare` runs write (compare on
    the README's coarsest grid, 1000 cells, to keep the run short)."""
    tmp = tmp_path_factory.mktemp("readme")
    config = tmp / "readme.ini"
    config.write_text(README_CONFIG)
    plots = []
    with pytest.MonkeyPatch.context() as mp:
        write = SvgPlot.write
        mp.setattr(SvgPlot, "write", lambda self, path: plots.append(self) or write(self, path))
        for command in ("profile", "compare"):
            assert main([command, "--config", str(config), "--out", str(tmp / command)]) == 0
    assert len(plots) == 4
    return plots


def test_readme_svgs_match_percent_format(readme_plots, monkeypatch):
    fallbacks = []
    percent = svgplot._percent_points
    monkeypatch.setattr(
        svgplot, "_percent_points", lambda pixels: fallbacks.append(pixels) or percent(pixels)
    )
    fast = [plot.render() for plot in readme_plots]
    assert fallbacks == []  # every README series takes the digit path
    monkeypatch.setattr(svgplot, "_points_text", _reference_points)
    assert fast == [plot.render() for plot in readme_plots]


def test_empty_plot_raises():
    with pytest.raises(ValueError, match="nothing to plot"):
        SvgPlot().render()
