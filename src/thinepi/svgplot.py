"""Standalone SVG figures: polyline plots, log-log scatter with a fitted
line, and histograms.

Output is a single self-contained SVG document — inline styling, no external
assets — with all coordinates rounded to fixed precision so identical data
produces byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = ["Figure", "line_plot", "loglog_plot", "histogram"]

_WIDTH, _HEIGHT = 640.0, 420.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 72.0, 24.0, 42.0, 52.0
_PALETTE = ("#1b6ca8", "#c0392b", "#2a9d55", "#8e44ad", "#d08a1d")


def _num(x: float) -> str:
    """Fixed two-decimal coordinate formatting (no negative zero)."""
    text = f"{float(x):.2f}"
    return "0.00" if text == "-0.00" else text


def _tick_label(x: float) -> str:
    text = f"{float(x):.4g}"
    return "0" if text == "-0" else text


class Figure:
    """Collects data series, then renders one SVG with axes and ticks.

    Log axes transform data to log10 before layout; tick labels show the
    original values.
    """

    def __init__(self, title="", xlabel="", ylabel="", xlog=False, ylog=False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.xlog = xlog
        self.ylog = ylog
        self._series = []   # (kind, xs, ys, color, extra)

    # -- data ---------------------------------------------------------------

    def _transform(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.size != ys.size:
            raise ValueError("x and y lengths differ")
        keep = np.isfinite(xs) & np.isfinite(ys)
        if self.xlog:
            keep &= xs > 0
        if self.ylog:
            keep &= ys > 0
        xs, ys = xs[keep], ys[keep]
        if xs.size == 0:
            raise ValueError("no plottable points in series")
        if self.xlog:
            xs = np.log10(xs)
        if self.ylog:
            ys = np.log10(ys)
        return xs, ys

    def add_line(self, xs, ys, label="", dashed=False):
        xs, ys = self._transform(xs, ys)
        color = _PALETTE[len(self._series) % len(_PALETTE)]
        self._series.append(("line", xs, ys, color, {"label": label,
                                                     "dashed": dashed}))
        return self

    def add_points(self, xs, ys, label=""):
        xs, ys = self._transform(xs, ys)
        color = _PALETTE[len(self._series) % len(_PALETTE)]
        self._series.append(("points", xs, ys, color, {"label": label}))
        return self

    def add_bars(self, edges, counts):
        edges = np.asarray(edges, dtype=float)
        counts = np.asarray(counts, dtype=float)
        if edges.size != counts.size + 1:
            raise ValueError("need len(edges) == len(counts) + 1")
        if self.xlog or self.ylog:
            raise ValueError("bars require linear axes")
        color = _PALETTE[len(self._series) % len(_PALETTE)]
        self._series.append(("bars", edges, counts, color, {}))
        return self

    # -- layout -------------------------------------------------------------

    def _bounds(self):
        xs_all, ys_all = [], []
        for kind, xs, ys, _, _ in self._series:
            if kind == "bars":
                xs_all.append(xs)
                ys_all.append(np.concatenate([ys, [0.0]]))
            else:
                xs_all.append(xs)
                ys_all.append(ys)
        xs_all = np.concatenate(xs_all)
        ys_all = np.concatenate(ys_all)
        x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
        y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
        if x_hi - x_lo < 1e-12:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        if y_hi - y_lo < 1e-12:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        pad_x = 0.04 * (x_hi - x_lo)
        pad_y = 0.06 * (y_hi - y_lo)
        return x_lo - pad_x, x_hi + pad_x, y_lo - pad_y, y_hi + pad_y

    def render(self) -> str:
        if not self._series:
            raise ValueError("figure has no data series")
        x_lo, x_hi, y_lo, y_hi = self._bounds()
        plot_w = _WIDTH - _LEFT - _RIGHT
        plot_h = _HEIGHT - _TOP - _BOTTOM

        def px(x):
            return _LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

        def py(y):
            return _TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_num(_WIDTH)}" '
            f'height="{_num(_HEIGHT)}" viewBox="0 0 {_num(_WIDTH)} '
            f'{_num(_HEIGHT)}">',
            f'<rect x="0" y="0" width="{_num(_WIDTH)}" '
            f'height="{_num(_HEIGHT)}" fill="#ffffff"/>',
            f'<rect x="{_num(_LEFT)}" y="{_num(_TOP)}" width="{_num(plot_w)}" '
            f'height="{_num(plot_h)}" fill="none" stroke="#333333" '
            'stroke-width="1"/>',
        ]
        # Axis ticks: five per axis, labels in data units (10^t on log axes).
        for t in np.linspace(x_lo, x_hi, 5):
            x = px(t)
            value = 10.0 ** t if self.xlog else t
            parts.append(
                f'<line x1="{_num(x)}" y1="{_num(_TOP + plot_h)}" '
                f'x2="{_num(x)}" y2="{_num(_TOP + plot_h + 5)}" '
                'stroke="#333333" stroke-width="1"/>')
            parts.append(
                f'<text x="{_num(x)}" y="{_num(_TOP + plot_h + 18)}" '
                'font-family="sans-serif" font-size="11" fill="#333333" '
                f'text-anchor="middle">{_tick_label(value)}</text>')
        for t in np.linspace(y_lo, y_hi, 5):
            y = py(t)
            value = 10.0 ** t if self.ylog else t
            parts.append(
                f'<line x1="{_num(_LEFT - 5)}" y1="{_num(y)}" '
                f'x2="{_num(_LEFT)}" y2="{_num(y)}" '
                'stroke="#333333" stroke-width="1"/>')
            parts.append(
                f'<text x="{_num(_LEFT - 8)}" y="{_num(y + 4)}" '
                'font-family="sans-serif" font-size="11" fill="#333333" '
                f'text-anchor="end">{_tick_label(value)}</text>')
        # Series.
        for kind, xs, ys, color, extra in self._series:
            if kind == "line":
                points = " ".join(f"{_num(px(x))},{_num(py(y))}"
                                  for x, y in zip(xs, ys))
                dash = ' stroke-dasharray="6,4"' if extra["dashed"] else ""
                parts.append(
                    f'<polyline points="{points}" fill="none" '
                    f'stroke="{color}" stroke-width="1.6"{dash}/>')
            elif kind == "points":
                for x, y in zip(xs, ys):
                    parts.append(
                        f'<circle cx="{_num(px(x))}" cy="{_num(py(y))}" '
                        f'r="3.00" fill="{color}" '
                        'fill-opacity="0.75"/>')
            else:  # bars
                base = py(max(0.0, y_lo))
                for j in range(ys.size):
                    left, right = px(xs[j]), px(xs[j + 1])
                    top = py(ys[j])
                    parts.append(
                        f'<rect x="{_num(left)}" y="{_num(min(top, base))}" '
                        f'width="{_num(max(right - left - 1.0, 0.5))}" '
                        f'height="{_num(abs(base - top))}" fill="{color}" '
                        'fill-opacity="0.8"/>')
        # Labels and legend.
        if self.title:
            parts.append(
                f'<text x="{_num(_WIDTH / 2)}" y="24" '
                'font-family="sans-serif" font-size="14" fill="#111111" '
                f'text-anchor="middle">{self.title}</text>')
        if self.xlabel:
            parts.append(
                f'<text x="{_num(_LEFT + plot_w / 2)}" '
                f'y="{_num(_HEIGHT - 14)}" font-family="sans-serif" '
                'font-size="12" fill="#111111" '
                f'text-anchor="middle">{self.xlabel}</text>')
        if self.ylabel:
            y_mid = _TOP + plot_h / 2
            parts.append(
                f'<text x="18" y="{_num(y_mid)}" font-family="sans-serif" '
                'font-size="12" fill="#111111" text-anchor="middle" '
                f'transform="rotate(-90 18 {_num(y_mid)})">{self.ylabel}'
                '</text>')
        legend_y = _TOP + 14.0
        for _, _, _, color, extra in self._series:
            label = extra.get("label", "")
            if not label:
                continue
            parts.append(
                f'<rect x="{_num(_LEFT + 10)}" y="{_num(legend_y - 8)}" '
                f'width="14" height="8" fill="{color}"/>')
            parts.append(
                f'<text x="{_num(_LEFT + 30)}" y="{_num(legend_y)}" '
                'font-family="sans-serif" font-size="11" '
                f'fill="#111111">{label}</text>')
            legend_y += 16.0
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(self.render())
        return path


def line_plot(path, xs, ys, title="", xlabel="", ylabel="") -> Path:
    """One polyline over linear axes."""
    return Figure(title, xlabel, ylabel).add_line(xs, ys).save(path)


def loglog_plot(path, xs, ys, slope=None, intercept=None, title="",
                xlabel="", ylabel="") -> Path:
    """Log-log scatter; optionally overlay the line
    log(y) = slope*log(x) + intercept (natural logs)."""
    fig = Figure(title, xlabel, ylabel, xlog=True, ylog=True)
    fig.add_points(xs, ys, label="data")
    if slope is not None:
        xs = np.asarray(xs, dtype=float)
        positive = xs[xs > 0]
        if positive.size >= 2:
            grid = np.geomspace(positive.min(), positive.max(), 32)
            fit = np.exp(float(intercept or 0.0)) * grid ** float(slope)
            fig.add_line(grid, fit, label=f"slope {slope:.3f}", dashed=True)
    return fig.save(path)


def histogram(path, values, bins=20, title="", xlabel=""):
    """Histogram with deterministic bin edges."""
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values)]
    if values.size == 0:
        raise ValueError("no finite values to histogram")
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-300:
        lo, hi = lo - 1.0, hi + 1.0
    edges = np.linspace(lo, hi, int(bins) + 1)
    counts, _ = np.histogram(values, bins=edges)
    fig = Figure(title, xlabel, "count")
    fig.add_bars(edges, counts.astype(float))
    return fig.save(path)
