"""Minimal self-contained SVG rendering (no plotting dependency)."""

from __future__ import annotations

import math

import numpy as np

_CELL = 30
_MARGIN_LEFT = 70
_MARGIN_TOP = 60
_MARGIN_BOTTOM = 20
_MARGIN_RIGHT = 20


def _color(value: float) -> str:
    """Linear white -> dark red ramp over [0, 1]; grey for NaN."""
    if not math.isfinite(value):
        return "#bbbbbb"
    t = min(1.0, max(0.0, value))
    r = 255
    g = round(245 * (1.0 - t))
    b = round(240 * (1.0 - t))
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap_svg(values: np.ndarray, labels: tuple[str, ...], title: str) -> str:
    """Render a labeled square heatmap of values in [0, 1] as an SVG
    document string."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    width = _MARGIN_LEFT + n * _CELL + _MARGIN_RIGHT
    height = _MARGIN_TOP + n * _CELL + _MARGIN_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:g}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<text x="{width - _MARGIN_RIGHT}" y="38" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">scale 0..1</text>',
    ]
    for j, lab in enumerate(labels):
        x = _MARGIN_LEFT + j * _CELL + _CELL / 2
        parts.append(
            f'<text x="{x:g}" y="{_MARGIN_TOP - 6}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="9">{lab}</text>'
        )
    for i, lab in enumerate(labels):
        y = _MARGIN_TOP + i * _CELL + _CELL / 2 + 3
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{y:g}" text-anchor="end" '
            f'font-family="sans-serif" font-size="9">{lab}</text>'
        )
    for i in range(n):
        for j in range(n):
            v = values[i, j]
            x = _MARGIN_LEFT + j * _CELL
            y = _MARGIN_TOP + i * _CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{_color(v)}" stroke="#888" stroke-width="0.5"/>'
            )
            label = "--" if not math.isfinite(v) else f"{v:.2f}"
            parts.append(
                f'<text x="{x + _CELL / 2:g}" y="{y + _CELL / 2 + 3:g}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="8">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
