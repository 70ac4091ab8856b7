"""Self-contained deterministic SVG line charts.

Hand-rolled on purpose: the output bytes depend only on the input series and
axes spec, so identical runs emit identical files. Supports linear and log
axes, point markers, and a legend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 40, 56


class SvgError(ValueError):
    pass


@dataclass(frozen=True)
class Series:
    name: str
    x: tuple
    y: tuple


@dataclass(frozen=True)
class AxesSpec:
    xlabel: str = "x"
    ylabel: str = "y"
    xscale: str = "linear"  # "linear" | "log"
    yscale: str = "linear"
    title: str = ""

    def __post_init__(self):
        for s in (self.xscale, self.yscale):
            if s not in ("linear", "log"):
                raise SvgError(f"axis scale must be 'linear' or 'log', got {s!r}")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _check_values(series: Series, values, axis: str, log: bool) -> None:
    for idx, v in enumerate(values):
        if not math.isfinite(v):
            raise SvgError(f"series {series.name!r} point {idx}: non-finite value {v!r} "
                           f"on the {axis}-axis")
        if log and v <= 0:
            raise SvgError(
                f"series {series.name!r} point {idx}: non-positive value {v!r} "
                f"on log {axis}-axis"
            )


def _transform(v: float, lo: float, hi: float, log: bool) -> float:
    if log:
        v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
    if hi == lo:
        return 0.5
    return (v - lo) / (hi - lo)


def _span(values, log: bool) -> tuple[float, float]:
    """(min, max) of an axis's values; a range of one value is padded by a
    decade each way on a log axis and by 1 on a linear one."""
    lo, hi = min(values), max(values)
    if lo == hi:
        return (lo / 10.0, hi * 10.0) if log else (lo - 1.0, hi + 1.0)
    return lo, hi


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo10, hi10 = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        return [10.0 ** e for e in range(lo10, hi10 + 1)]
    if hi == lo:
        return [lo]
    step = 10.0 ** math.floor(math.log10((hi - lo) / 4))
    for mult in (1, 2, 5, 10):
        if (hi - lo) / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks, t = [], first
    while t <= hi + 1e-12 * abs(step):
        ticks.append(t)
        t += step
    return ticks


def emit_svg(series: list[Series], axes: AxesSpec, path) -> None:
    """Write a standalone SVG line chart. Errors on empty input, on nan and
    infinite values, and on non-positive values under a log axis, naming
    the series and the offending index."""
    if not series or all(len(s.x) == 0 for s in series):
        raise SvgError("cannot plot an empty series list")
    for s in series:
        if len(s.x) != len(s.y):
            raise SvgError(f"series {s.name!r} has mismatched x/y lengths")
        _check_values(s, s.x, "x", axes.xscale == "log")
        _check_values(s, s.y, "y", axes.yscale == "log")

    logx, logy = axes.xscale == "log", axes.yscale == "log"
    xlo, xhi = _span([v for s in series for v in s.x], logx)
    ylo, yhi = _span([v for s in series for v in s.y], logy)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v):
        return MARGIN_L + plot_w * _transform(v, xlo, xhi, logx)

    def py(v):
        return MARGIN_T + plot_h * (1.0 - _transform(v, ylo, yhi, logy))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if axes.title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(axes.title)}</text>'
        )
    for t in _ticks(xlo, xhi, logx):
        if t < xlo - 1e-12 or t > xhi * (1 + 1e-12) + 1e-12:
            continue
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{MARGIN_T + plot_h}" x2="{x:.2f}" '
                     f'y2="{MARGIN_T + plot_h + 5}" stroke="#333333"/>')
        parts.append(f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                     f'{_fmt(t)}</text>')
    for t in _ticks(ylo, yhi, logy):
        if t < ylo - 1e-12 or t > yhi * (1 + 1e-12) + 1e-12:
            continue
        y = py(t)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" '
                     f'y2="{y:.2f}" stroke="#333333"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 14}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="13">'
                 f'{_escape(axes.xlabel)}</text>')
    parts.append(f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">'
                 f'{_escape(axes.ylabel)}</text>')

    for si, s in enumerate(series):
        color = PALETTE[si % len(PALETTE)]
        coords = [(px(x), py(y)) for x, y in zip(s.x, s.y)]
        if len(coords) > 1:
            pointstr = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
            parts.append(f'<polyline points="{pointstr}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        for x, y in coords:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')

    lx, ly = MARGIN_L + 12, MARGIN_T + 12
    for si, s in enumerate(series):
        color = PALETTE[si % len(PALETTE)]
        y = ly + 18 * si
        parts.append(f'<line x1="{lx}" y1="{y}" x2="{lx + 22}" y2="{y}" '
                     f'stroke="{color}" stroke-width="2" class="legend"/>')
        parts.append(f'<text x="{lx + 28}" y="{y + 4}" font-family="sans-serif" '
                     f'font-size="12" class="legend">{_escape(s.name)}</text>')
    parts.append("</svg>")
    data = "\n".join(parts) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
