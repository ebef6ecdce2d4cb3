"""Write aggregate learning curves to CSV and SVG.

The CSV layout is one row per (round, agent) pair, round-major, agents
in the order the series are passed:

    round,agent,mean_reward,cum_mean_reward
    1,causal,1.0000000000,1.0000000000
    ...

Values carry ten decimal places and lines end with LF regardless of
platform, so identical inputs always produce identical bytes. The layout
has no quoting, so a label holding a comma or a line break is refused.

The SVG is a self-contained line chart: one polyline per agent over the
per-round mean series, labeled axes, and a legend, written as plain
text, so its bytes do not depend on the ElementTree of the Python in use.
"""

from __future__ import annotations

from typing import Sequence

from .experiment import RoundSeries

__all__ = ["write_csv", "write_svg"]

CSV_HEADER = "round,agent,mean_reward,cum_mean_reward"

# Line colors cycle through this palette in series order.
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")

_WIDTH, _HEIGHT = 880, 520
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 160, 30, 55


def _check_series(series: Sequence[RoundSeries]) -> int:
    if not series:
        raise ValueError("empty-series: at least one series is required")
    rounds = len(series[0].values)
    if rounds == 0:
        raise ValueError("empty-series: series contain no rounds")
    for s in series:
        if len(s.values) != rounds or len(s.cumulative) != rounds:
            raise ValueError("length-mismatch: all series must cover the same rounds")
    return rounds


def write_csv(series: Sequence[RoundSeries], path: str) -> None:
    """Emit the aggregate curves; see the module docstring for layout."""
    rounds = _check_series(series)
    if bad := [s.label for s in series if any(c in s.label for c in ",\r\n")]:
        raise ValueError(f"csv-label: the label {bad[0]!r} holds a comma or a line break")
    text: dict = {}  # each distinct mean formatted once; a zero is keyed by its text, as 0.0 == -0.0
    means = [[text.get(k := v or str(v)) or text.setdefault(k, f"{v:.10f}") for v in s.values] for s in series]
    rows = [f"{t + 1},{s.label},{m[t]},{s.cumulative[t]:.10f}" for t in range(rounds) for s, m in zip(series, means)]
    data = "\n".join([CSV_HEADER, *rows, ""]).encode("utf-8")  # a label it cannot encode leaves the file as it was
    with open(path, "wb") as f:
        f.write(data)


def write_svg(series: Sequence[RoundSeries], path: str) -> None:
    """Plot the per-round mean series as one polyline per agent."""
    rounds = _check_series(series)

    lo = min(min(s.values) for s in series)
    hi = max(max(s.values) for s in series)
    if hi - lo < 1e-12:
        # Flat data still deserves a visible horizontal line; from 2**29 on, the margin grows
        # with the value, so that it cannot round away and the 12-digit tick labels differ.
        margin = max(0.5, abs(lo) * 2.0**-30)
        lo, hi = lo - margin, hi + margin
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    span = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    x0, xstep = (_MARGIN_LEFT + span / 2.0, 0.0) if rounds == 1 else (_MARGIN_LEFT, span / (rounds - 1))

    def ypix(v: float) -> float:
        return _MARGIN_TOP + (hi - v) / (hi - lo) * plot_h

    # Each x coordinate, and each distinct value, is formatted once.
    xs = [f"{x0 + xstep * t:.2f}" for t in range(rounds)]
    ys = {v: f"{ypix(v):.2f}" for v in {v for s in series for v in s.values}}
    out = [
        "<?xml version='1.0' encoding='utf-8'?>",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'  <rect width="{_WIDTH}" height="{_HEIGHT}" fill="white" />',
    ]

    def line(x1, y1, x2, y2, stroke="black", width="1") -> None:
        out.append(f'  <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="{width}" />')

    # Label text is escaped as ElementTree escapes it; an empty label
    # closes its own tag.
    def text(x, y, label, size, anchor=None, transform=None) -> None:
        tag = f'  <text x="{x}" y="{y}"' + (f' text-anchor="{anchor}"' if anchor else "")
        tag += f' font-family="sans-serif" font-size="{size}"' + (f' transform="{transform}"' if transform else "")
        body = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f"{tag}>{body}</text>" if body else f"{tag} />")

    x_axis_y = _HEIGHT - _MARGIN_BOTTOM
    line(_MARGIN_LEFT, x_axis_y, _WIDTH - _MARGIN_RIGHT, x_axis_y)
    line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, x_axis_y)

    # Axis titles.
    text(f"{(_MARGIN_LEFT + _WIDTH - _MARGIN_RIGHT) / 2:.1f}", _HEIGHT - 12, "round", "14", "middle")
    mid = f"{(_MARGIN_TOP + x_axis_y) / 2:.1f}"
    text(18, mid, "mean reward", "14", "middle", f"rotate(-90 18 {mid})")

    # A handful of ticks on each axis.
    tick_rounds = sorted({1, max(1, rounds // 4), max(1, rounds // 2), max(1, 3 * rounds // 4), rounds})
    for t in tick_rounds:
        x = f"{x0 + xstep * (t - 1):.1f}"
        line(x, x_axis_y, x, x_axis_y + 5)
        text(x, x_axis_y + 20, str(t), "12", "middle")
    for i in range(5):
        v = lo + (hi - lo) * i / 4.0
        y = ypix(v)
        line(_MARGIN_LEFT - 5, f"{y:.1f}", _MARGIN_LEFT, f"{y:.1f}")
        # Fixed-point below 1e9; beyond, a general format keeps the label within the left margin.
        text(_MARGIN_LEFT - 9, f"{y + 4:.1f}", f"{v:.3f}" if abs(v) < 1e9 else f"{v:.12g}", "12", "end")

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join([f"{x},{ys[v]}" for x, v in zip(xs, s.values)])
        out.append(f'  <polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5" />')
        # Legend entry.
        ly = _MARGIN_TOP + 10 + 22 * i
        lx = _WIDTH - _MARGIN_RIGHT + 16
        line(lx, ly, lx + 26, ly, color, "2")
        text(lx + 32, ly + 4, s.label, "13")

    # A lone surrogate in a label becomes a character reference.
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace", newline="") as f:
        f.write("\n".join([*out, "</svg>"]))
