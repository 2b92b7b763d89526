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
            pixels = np.column_stack((px(xs), py(ys))).ravel().tolist()
            pts = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(pixels)
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
