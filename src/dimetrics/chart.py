"""Self-contained SVG trendline chart for the normalized report columns.

NCBO, NDCBO, MAI, and DMAI are plotted against the DI proportion on fixed
[0, 1] axes, each series with a least-squares linear trendline (omitted when
fewer than two distinct x positions exist).  Output is byte-deterministic
for identical input: fixed canvas, fixed colors, fixed number formatting,
no timestamps.
"""
from __future__ import annotations

from collections.abc import Sequence

from .report import ReportRow

_WIDTH = 640
_HEIGHT = 440
_LEFT, _RIGHT = 70.0, 620.0
_TOP, _BOTTOM = 30.0, 390.0

_SERIES = (
    ("ncbo", "#1f77b4", "NCBO"),
    ("ndcbo", "#ff7f0e", "NDCBO"),
    ("mai", "#2ca02c", "MAI"),
    ("dmai", "#d62728", "DMAI"),
)


def _sx(value: float) -> float:
    return _LEFT + value * (_RIGHT - _LEFT)


def _sy(value: float) -> float:
    return _BOTTOM - value * (_BOTTOM - _TOP)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def least_squares(points: Sequence[tuple[float, float]]) -> tuple[float, float] | None:
    """(slope, intercept) of the least-squares line, or None if undefined."""
    if len(points) < 2:
        return None
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    if sxx == 0:
        return None
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x


def _line(x1: float, y1: float, x2: float, y2: float, style: str) -> str:
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>'


def _text(x: str, y: str, style: str, body: str) -> str:
    # x and y arrive formatted: the rotated axis label is placed at a bare x="16"
    return f'<text x="{x}" y="{y}" font-family="sans-serif" {style}>{body}</text>'


def render_chart(rows: Sequence[ReportRow]) -> str:
    grid = 'stroke="#dddddd" stroke-width="1"'
    axis = 'stroke="black" stroke-width="1"'
    title = 'font-size="13" text-anchor="middle"'
    mid_y = _fmt((_TOP + _BOTTOM) / 2)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}"'
        f' viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    # axes and grid
    for i in range(6):
        tick = i / 5.0
        x = _sx(tick)
        y = _sy(tick)
        tick_label = f"{tick:.1f}"
        parts += [
            _line(x, _BOTTOM, x, _TOP, grid),
            _line(_LEFT, y, _RIGHT, y, grid),
            _text(_fmt(x), _fmt(_BOTTOM + 18), 'font-size="11" text-anchor="middle"', tick_label),
            _text(_fmt(_LEFT - 8), _fmt(y + 4), 'font-size="11" text-anchor="end"', tick_label),
        ]
    parts += [
        _line(_LEFT, _BOTTOM, _RIGHT, _BOTTOM, axis),
        _line(_LEFT, _BOTTOM, _LEFT, _TOP, axis),
        _text(_fmt((_LEFT + _RIGHT) / 2), _fmt(_BOTTOM + 36), title, "DI proportion"),
        _text("16", mid_y, f'{title} transform="rotate(-90 16 {mid_y})"', "normalized value"),
    ]
    # series
    for key, color, label in _SERIES:
        points = [(row.di, getattr(row, key)) for row in rows]
        fit = least_squares(points)
        if fit is not None:
            slope, intercept = fit
            x0 = min(x for x, _ in points)
            x1 = max(x for x, _ in points)
            y0, y1 = slope * x0 + intercept, slope * x1 + intercept
            dashed = f'stroke="{color}" stroke-width="1.5" stroke-dasharray="5 4"'
            parts.append(_line(_sx(x0), _sy(y0), _sx(x1), _sy(y1), dashed))
        for x, y in points:
            parts.append(
                f'<circle cx="{_fmt(_sx(x))}" cy="{_fmt(_sy(y))}" r="3.5"'
                f' fill="{color}" data-series="{label}"/>'
            )
    # legend
    for index, (_, color, label) in enumerate(_SERIES):
        y = _TOP + 8 + 18 * index
        parts.append(
            f'<rect x="{_fmt(_LEFT + 12)}" y="{_fmt(y - 9)}" width="12" height="12"'
            f' fill="{color}"/>'
        )
        parts.append(_text(_fmt(_LEFT + 30), _fmt(y + 2), 'font-size="12"', label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
