"""Minimal self-contained SVG line plots (no plotting dependency).

Enough for profile figures: polyline series, dashed vertical rules at zone
boundaries, axis ticks at round values, and a small legend.
"""

from __future__ import annotations

import math

import numpy as np

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 44
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
#: 100 v at or above this (2**20) sends a series to the % formatter.
_TEXT_LIMIT = 2.0**20


def _nice_ticks(lo, hi, target=6):
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _fmt(v):
    return f"{v:.6g}"


def _percent_points(pixels):
    """Polyline points text by one "%.2f,%.2f" format per point."""
    return " ".join(["%.2f,%.2f"] * (len(pixels) // 2)) % tuple(pixels.tolist())


def _points_text(pixels):
    """Polyline points "x0,y0 x1,y1 ..." of the flat array [x0, y0, x1, ...],
    byte for byte as "%.2f,%.2f" joined by spaces writes them.

    "%.2f" writes the integer nearest to 100 v, for the exact binary value
    of v, as a decimal with two places.  The float p = 100.0 * v is that
    exact product rounded, and rounding is monotone.  Below 2**20 every
    half-integer h is a float, so an exact product above h gives p >= h and
    one below h gives p <= h: where p is not itself a half-integer, it lies
    between the same two half-integers as the exact product, and rint(p) is
    the integer that "%.2f" writes (p - rint(p) is exact, so the test for a
    half-integer is too).  The slack this needs is zero.  The digits then
    come from integer division, leading zeros of the integer part are NUL
    bytes, and deleting those leaves the text.  A series with any value
    outside that domain (negative or -0.0, NaN, inf, 100 v >= 2**20, or a
    p on a half-integer, as from the tie 64.125 or from 0.005, whose exact
    product lies above 0.5 but rounds to it) is written by the % formatter.
    """
    p = 100.0 * pixels
    k = np.rint(p)
    if (np.signbit(pixels).any() or not (p < _TEXT_LIMIT).all()
            or (np.abs(p - k) == 0.5).any()):
        return _percent_points(pixels)
    # int32 holds k <= 2**20, and its division by a constant is numpy's fast one.
    k = k.astype(np.int32)
    width = len(str(int(k.max()) // 100))  # digits of the widest integer part
    chars = np.empty((len(k), width + 4), np.uint8)  # digits, ".", 2 digits, separator
    rest = k
    for col in (width + 2, width + 1, *range(width - 1, -1, -1)):
        quot = rest // 10
        chars[:, col] = rest - 10 * quot
        rest = quot
    chars += ord("0")
    for col in range(width - 1):
        chars[:, col] *= k >= 10 ** (width + 1 - col)  # a leading zero becomes NUL
    chars[:, width] = ord(".")
    chars[0::2, -1] = ord(",")
    chars[1::2, -1] = ord(" ")
    chars[-1, -1] = 0
    # Decoded from the array's own buffer: the bytes copies of tobytes() and
    # translate() grew a long run's heap by about 1 MB per 50 `profile` calls.
    return str(chars[chars != 0].data, "ascii")


class SvgPlot:
    """Accumulate series and rules, then write one standalone SVG file."""

    def __init__(self, title="", xlabel="x", ylabel=""):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series = []  # (name, x, y, dashed)
        self.vlines = []  # (x, label)

    def add_series(self, name, x, y, dashed=False):
        self.series.append((name, np.array(x, float), np.array(y, float), dashed))

    def add_vline(self, x, label=""):
        self.vlines.append((float(x), label))

    def _bounds(self):
        x_lo = min(float(x.min()) for _, x, _, _ in self.series)
        x_hi = max(float(x.max()) for _, x, _, _ in self.series)
        y_lo = min(float(y.min()) for _, _, y, _ in self.series)
        y_hi = max(float(y.max()) for _, _, y, _ in self.series)
        pad = 0.05 * max(y_hi - y_lo, 1e-9)
        return x_lo, x_hi, y_lo - pad, y_hi + pad

    def render(self) -> str:
        if not self.series:
            raise ValueError("nothing to plot")
        x_lo, x_hi, y_lo, y_hi = self._bounds()
        iw = _WIDTH - _MARGIN_L - _MARGIN_R
        ih = _HEIGHT - _MARGIN_T - _MARGIN_B

        def px(x):
            return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * iw

        def py(y):
            return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * ih

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            f'<text x="{_WIDTH / 2}" y="18" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{self.title}</text>',
        ]
        # Axes box
        out.append(
            f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{iw}" height="{ih}" '
            'fill="none" stroke="#444" stroke-width="1"/>'
        )
        for tx in _nice_ticks(x_lo, x_hi):
            if not x_lo <= tx <= x_hi:
                continue
            out.append(
                f'<line x1="{px(tx):.2f}" y1="{py(y_lo):.2f}" x2="{px(tx):.2f}" '
                f'y2="{py(y_lo) + 5:.2f}" stroke="#444"/>'
            )
            out.append(
                f'<text x="{px(tx):.2f}" y="{py(y_lo) + 18:.2f}" text-anchor="middle" '
                f'font-family="monospace" font-size="11">{_fmt(tx)}</text>'
            )
        for ty in _nice_ticks(y_lo, y_hi):
            if not y_lo <= ty <= y_hi:
                continue
            out.append(
                f'<line x1="{_MARGIN_L - 5}" y1="{py(ty):.2f}" x2="{_MARGIN_L}" '
                f'y2="{py(ty):.2f}" stroke="#444"/>'
            )
            out.append(
                f'<text x="{_MARGIN_L - 8}" y="{py(ty) + 4:.2f}" text-anchor="end" '
                f'font-family="monospace" font-size="11">{_fmt(ty)}</text>'
            )
        out.append(
            f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 8}" text-anchor="middle" '
            f'font-family="monospace" font-size="12">{self.xlabel}</text>'
        )
        if self.ylabel:
            out.append(
                f'<text x="14" y="{_MARGIN_T + ih / 2}" text-anchor="middle" '
                f'font-family="monospace" font-size="12" '
                f'transform="rotate(-90 14 {_MARGIN_T + ih / 2})">{self.ylabel}</text>'
            )
        for x, label in self.vlines:
            if not x_lo <= x <= x_hi:
                continue
            out.append(
                f'<line x1="{px(x):.2f}" y1="{py(y_hi):.2f}" x2="{px(x):.2f}" '
                f'y2="{py(y_lo):.2f}" stroke="#999" stroke-width="0.8" '
                'stroke-dasharray="4,3"/>'
            )
            if label:
                out.append(
                    f'<text x="{px(x) + 2:.2f}" y="{_MARGIN_T + 12}" '
                    f'font-family="monospace" font-size="9" fill="#777">{label}</text>'
                )
        for k, (name, xs, ys, dashed) in enumerate(self.series):
            color = _COLORS[k % len(_COLORS)]
            # px and py map whole arrays, in the scalar operation order.
            pts = _points_text(np.column_stack((px(xs), py(ys))).ravel())
            dash = ' stroke-dasharray="2,3"' if dashed else ""
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.4"{dash}/>'
            )
            ly = _MARGIN_T + 16 + 14 * k
            out.append(
                f'<line x1="{_WIDTH - 130}" y1="{ly}" x2="{_WIDTH - 108}" y2="{ly}" '
                f'stroke="{color}" stroke-width="1.4"{dash}/>'
            )
            out.append(
                f'<text x="{_WIDTH - 102}" y="{ly + 4}" font-family="monospace" '
                f'font-size="11">{name}</text>'
            )
        out.append("</svg>")
        return "\n".join(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
