"""Write aggregate learning curves to CSV and SVG.

The CSV layout is one row per (round, agent) pair, round-major, agents
in the order the series are passed:

    round,agent,mean_reward,cum_mean_reward
    1,causal,1.0000000000,1.0000000000
    ...

Values carry ten decimal places and lines end with LF regardless of
platform, so identical inputs always produce identical bytes.

The SVG is a self-contained line chart: one polyline per agent over the
per-round mean series, labeled axes, and a legend.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
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
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for t in range(rounds):
            for s in series:
                f.write(f"{t + 1},{s.label},{s.values[t]:.10f},{s.cumulative[t]:.10f}\n")


def _x_scale(rounds: int) -> tuple[float, float]:
    span = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    if rounds == 1:
        return _MARGIN_LEFT + span / 2.0, 0.0
    return _MARGIN_LEFT, span / (rounds - 1)


def write_svg(series: Sequence[RoundSeries], path: str) -> None:
    """Plot the per-round mean series as one polyline per agent."""
    rounds = _check_series(series)

    lo = min(min(s.values) for s in series)
    hi = max(max(s.values) for s in series)
    if hi - lo < 1e-12:
        # Flat data still deserves a visible horizontal line.
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x0, xstep = _x_scale(rounds)

    def xpix(t: int) -> float:
        return x0 + xstep * t

    def ypix(v: float) -> float:
        return _MARGIN_TOP + (hi - v) / (hi - lo) * plot_h

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(_WIDTH),
            "height": str(_HEIGHT),
            "viewBox": f"0 0 {_WIDTH} {_HEIGHT}",
        },
    )
    ET.SubElement(svg, "rect", {"width": str(_WIDTH), "height": str(_HEIGHT), "fill": "white"})

    # Coordinates are ints or preformatted strings; attributes are written
    # in insertion order, so the order here is the order in the file.
    def line(x1, y1, x2, y2, stroke="black", width="1") -> None:
        ends = {"x1": x1, "y1": y1, "x2": x2, "y2": y2}
        ET.SubElement(svg, "line", {k: str(v) for k, v in ends.items()} | {"stroke": stroke, "stroke-width": width})

    def text(x, y, label, size, anchor=None, **extra) -> None:
        attrs = {"x": str(x), "y": str(y)} | ({"text-anchor": anchor} if anchor else {})
        ET.SubElement(svg, "text", attrs | {"font-family": "sans-serif", "font-size": size} | extra).text = label

    x_axis_y = _HEIGHT - _MARGIN_BOTTOM
    line(_MARGIN_LEFT, x_axis_y, _WIDTH - _MARGIN_RIGHT, x_axis_y)
    line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, x_axis_y)

    # Axis titles.
    text(f"{(_MARGIN_LEFT + _WIDTH - _MARGIN_RIGHT) / 2:.1f}", _HEIGHT - 12, "round", "14", "middle")
    mid = f"{(_MARGIN_TOP + x_axis_y) / 2:.1f}"
    text(18, mid, "mean reward", "14", "middle", transform=f"rotate(-90 18 {mid})")

    # A handful of ticks on each axis.
    tick_rounds = sorted({1, max(1, rounds // 4), max(1, rounds // 2), max(1, 3 * rounds // 4), rounds})
    for t in tick_rounds:
        x = f"{xpix(t - 1):.1f}"
        line(x, x_axis_y, x, x_axis_y + 5)
        text(x, x_axis_y + 20, str(t), "12", "middle")
    for i in range(5):
        v = lo + (hi - lo) * i / 4.0
        y = ypix(v)
        line(_MARGIN_LEFT - 5, f"{y:.1f}", _MARGIN_LEFT, f"{y:.1f}")
        text(_MARGIN_LEFT - 9, f"{y + 4:.1f}", f"{v:.3f}", "12", "end")

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{xpix(t):.2f},{ypix(v):.2f}" for t, v in enumerate(s.values))
        ET.SubElement(svg, "polyline", {"points": points, "fill": "none", "stroke": color, "stroke-width": "1.5"})
        # Legend entry.
        ly = _MARGIN_TOP + 10 + 22 * i
        lx = _WIDTH - _MARGIN_RIGHT + 16
        line(lx, ly, lx + 26, ly, color, "2")
        text(lx + 32, ly + 4, s.label, "13")

    tree = ET.ElementTree(svg)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)
