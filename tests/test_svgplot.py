import re

import numpy as np
import pytest

from iiorbit import svgplot


def reference_points(x, y, xlo, xhi, ylo, yhi):
    """The polyline's points with px and py applied one numpy scalar at a
    time, as a plot formatted them before its coordinates were computed on
    whole arrays."""
    pw = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    ph = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B

    def px(v):
        return svgplot.MARGIN_L + (v - xlo) / (xhi - xlo) * pw

    def py(v):
        return svgplot.MARGIN_T + (yhi - v) / (yhi - ylo) * ph

    return " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))


@pytest.mark.parametrize("count", [1, 7, 4000, 12345])
def test_polyline_points_match_the_per_point_reference(tmp_path, count):
    # the same expression on whole arrays performs the same operations in
    # the same order, so every coordinate string is the same
    rng = np.random.default_rng(count)
    t = np.sort(rng.uniform(-3.0, 40.0, size=count))
    y = 1e3 * np.sin(t) * rng.normal(size=count)
    path = tmp_path / "plot.svg"
    svgplot.line_plot(str(path), [("a", t, y), ("b", t, -0.5 * y)])
    got = re.findall(r'points="([^"]*)"', path.read_text(encoding="utf-8"))
    xlo, xhi = float(t.min()), float(t.max())
    ylo, yhi = float(min(y.min(), (-0.5 * y).min())), float(max(y.max(), (-0.5 * y).max()))
    if xhi <= xlo:
        xhi = xlo + 1.0
    if yhi <= ylo:
        pad = max(1e-12, abs(ylo)) * 0.5 + 0.5
    else:
        pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    want = [
        reference_points(*svgplot._decimate(t, s), xlo, xhi, ylo, yhi) for s in (y, -0.5 * y)
    ]
    assert got == want


@pytest.mark.parametrize(
    "values",
    [
        [],
        [float("nan")],
        [1.0, float("nan"), -2.5, float("inf"), -float("inf")],
        # values that round to -0.00, and their neighbours
        [-0.0, -0.004, -0.0049999, -0.005, -0.00500001, 0.004, 0.005, 0.0, -1e-300],
        [1e300, -1e17, 123.455, 123.465, 62.0, 702.0000000001],
    ],
)
def test_points_match_the_per_point_format(values):
    # one "%.2f,%.2f " % over the whole series writes what the per-point
    # "{:.2f},{:.2f}".format wrote, and an empty series has no points
    x = np.array(values, dtype=float)
    y = -x[::-1]
    want = " ".join(map("{:.2f},{:.2f}".format, x.tolist(), y.tolist()))
    assert svgplot._points(x, y) == want
