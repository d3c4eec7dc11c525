"""Minimal deterministic SVG line plots.

Byte-identical output for identical input is a hard requirement for the
artifact determinism check, so this module formats every coordinate with a
fixed format string and never embeds timestamps or random ids. Every text
(title, axis and series labels) is XML-escaped, so a file parses as XML
whatever the scenario is called.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

WIDTH = 720
HEIGHT = 480
MARGIN_L = 62
MARGIN_R = 18
MARGIN_T = 34
MARGIN_B = 46

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

MAX_POINTS = 4000


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _escape(text: str) -> str:
    """text with &, < and > written as XML entities; a plain function, since
    importing html would load its entity table of more than 2,000 names
    (about 0.5 MB of memory)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


def _decimate(x: np.ndarray, y: np.ndarray):
    if len(x) <= MAX_POINTS:
        return x, y
    idx = np.unique(np.linspace(0, len(x) - 1, MAX_POINTS).astype(int))
    return x[idx], y[idx]


def _points(X: np.ndarray, Y: np.ndarray) -> str:
    """A polyline's points "X,Y X,Y ..." with two decimals, as _fmt writes
    each: "%.2f" is the same conversion as "{:.2f}".format, and one % over
    the whole series takes no Python step per point. X and Y come from px
    and py on whole arrays, which do the same operations in the same order
    as on one point at a time, so they are the same bits."""
    return ("%.2f,%.2f " * len(X) % tuple(np.column_stack((X, Y)).ravel().tolist()))[:-1]


def line_plot(
    path: str,
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write a line plot; series is a list of (label, x, y) triples."""
    xs = [np.asarray(s[1], dtype=float) for s in series]
    ys = [np.asarray(s[2], dtype=float) for s in series]
    xlo = min(float(a.min()) for a in xs)
    xhi = max(float(a.max()) for a in xs)
    ylo = min(float(a.min()) for a in ys)
    yhi = max(float(a.max()) for a in ys)
    if xhi <= xlo:
        xhi = xlo + 1.0
    if yhi <= ylo:
        pad = max(1e-12, abs(ylo)) * 0.5 + 0.5
        ylo, yhi = ylo - pad, yhi + pad
    else:
        pad = 0.05 * (yhi - ylo)
        ylo, yhi = ylo - pad, yhi + pad

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def px(v):
        return MARGIN_L + (v - xlo) / (xhi - xlo) * pw

    def py(v):
        return MARGIN_T + (yhi - v) / (yhi - ylo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    font = 'font-family="sans-serif" font-size="12"'
    for t in _ticks(xlo, xhi):
        X = _fmt(px(t))
        out.append(
            f'<line x1="{X}" y1="{MARGIN_T + ph}" x2="{X}" y2="{MARGIN_T + ph + 4}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{X}" y="{MARGIN_T + ph + 17}" {font} '
            f'text-anchor="middle">{_tick_label(t)}</text>'
        )
    for t in _ticks(ylo, yhi):
        Y = _fmt(py(t))
        out.append(
            f'<line x1="{MARGIN_L - 4}" y1="{Y}" x2="{MARGIN_L}" y2="{Y}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 7}" y="{Y}" {font} text-anchor="end" '
            f'dominant-baseline="middle">{_tick_label(t)}</text>'
        )
    title, xlabel, ylabel = map(_escape, (title, xlabel, ylabel))
    if title:
        out.append(
            f'<text x="{WIDTH // 2}" y="20" font-family="sans-serif" font-size="14" '
            f'text-anchor="middle">{title}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{MARGIN_L + pw // 2}" y="{HEIGHT - 10}" {font} '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="16" y="{MARGIN_T + ph // 2}" {font} text-anchor="middle" '
            f'transform="rotate(-90 16 {MARGIN_T + ph // 2})">{ylabel}</text>'
        )
    for i, (label, x, y) in enumerate(series):
        x, y = _decimate(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        color = PALETTE[i % len(PALETTE)]
        pts = _points(px(x), py(y))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.3" points="{pts}"/>'
        )
        if label:
            ly = MARGIN_T + 14 + 15 * i
            out.append(
                f'<line x1="{MARGIN_L + pw - 110}" y1="{ly - 4}" '
                f'x2="{MARGIN_L + pw - 88}" y2="{ly - 4}" stroke="{color}" '
                'stroke-width="2"/>'
            )
            out.append(
                f'<text x="{MARGIN_L + pw - 83}" y="{ly}" {font}>'
                f"{_escape(label)}</text>"
            )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def phase_plot(
    path: str,
    x: np.ndarray,
    y: np.ndarray,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Single-curve phase-plane plot (x against y, no legend)."""
    line_plot(path, [("", x, y)], title=title, xlabel=xlabel, ylabel=ylabel)
