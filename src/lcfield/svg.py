"""Static SVG plots for the CLI.

Output is SVG 1.1 with a fixed 640x480 viewBox and deterministic
formatting: the same input always yields byte-identical markup.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .number import LCNumber

WIDTH = 640
HEIGHT = 480

_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _float(v: Fraction, bound: int = 10**12) -> float:
    """v clamped to [-bound, bound], then converted: an exact value can exceed float range."""
    return float(max(-bound, min(bound, v)))


def _map_x(x: float, lo: float, hi: float, left: float, right: float) -> float:
    return left + (x - lo) / (hi - lo) * (right - left)


def _map_y(y: float, lo: float, hi: float) -> float:
    # SVG y grows downward.
    return HEIGHT - 40 - (y - lo) / (hi - lo) * (HEIGHT - 80)


def parabola_svg(
    coeffs: tuple[Fraction, Fraction, Fraction],
    points: Sequence[tuple[Fraction, Fraction]],
) -> str:
    """Shadow parabola y = A*x^2 + B*x + C with the sampled shadow points."""
    A, B, C = (_float(c) for c in coeffs)
    xlo, xhi, ylo, yhi = -6.0, 6.0, -2.0, 10.0
    parts = [_HEADER]
    parts.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    # Axes.
    x_axis_y = _map_y(0.0, ylo, yhi)
    y_axis_x = _map_x(0.0, xlo, xhi, 40, WIDTH - 40)
    parts.append(
        f'<line x1="40" y1="{_fmt(x_axis_y)}" x2="{WIDTH - 40}" y2="{_fmt(x_axis_y)}" '
        'stroke="#888" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(y_axis_x)}" y1="40" x2="{_fmt(y_axis_x)}" y2="{HEIGHT - 40}" '
        'stroke="#888" stroke-width="1"/>'
    )
    # Parabola polyline.
    samples = []
    steps = 96
    for i in range(steps + 1):
        x = xlo + (xhi - xlo) * i / steps
        y = A * x * x + B * x + C
        samples.append(
            f"{_fmt(_map_x(x, xlo, xhi, 40, WIDTH - 40))},{_fmt(_map_y(y, ylo, yhi))}"
        )
    parts.append(
        f'<polyline points="{" ".join(samples)}" fill="none" stroke="#1f77b4" '
        'stroke-width="2"/>'
    )
    # Sample points.
    for x, y in points:
        cx = _map_x(_float(x), xlo, xhi, 40, WIDTH - 40)
        cy = _map_y(_float(y), ylo, yhi)
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="5" fill="#d62728"/>'
        )
        parts.append(
            f'<text x="{_fmt(cx + 8)}" y="{_fmt(cy - 8)}" font-size="14" '
            f'font-family="monospace">({x},{y})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def zoom_svg(value: LCNumber) -> str:
    """Two panes: the standard number line, and an eps-scale pane around the
    value's standard part where its infinitesimal part becomes visible."""
    st = value.st()
    residual = value - st
    mid = WIDTH / 2
    parts = [_HEADER]
    parts.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    parts.append(
        f'<line x1="{_fmt(mid)}" y1="20" x2="{_fmt(mid)}" y2="{HEIGHT - 20}" '
        'stroke="#ccc" stroke-width="1"/>'
    )
    mid_y = HEIGHT / 2

    def pane(left: float, right: float, title: str, marks: list[tuple[float, str]]) -> None:
        parts.append(
            f'<text x="{_fmt((left + right) / 2)}" y="60" text-anchor="middle" '
            f'font-size="16" font-family="monospace">{title}</text>'
        )
        parts.append(
            f'<line x1="{_fmt(left)}" y1="{_fmt(mid_y)}" x2="{_fmt(right)}" '
            f'y2="{_fmt(mid_y)}" stroke="#333" stroke-width="2"/>'
        )
        for pos, label in marks:
            cx = _map_x(pos, -2.0, 2.0, left, right)
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(mid_y)}" r="5" fill="#d62728"/>'
            )
            parts.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(mid_y + 28)}" text-anchor="middle" '
                f'font-size="14" font-family="monospace">{label}</text>'
            )

    # Left pane: the standard scale; the whole monad sits on one point.
    pane(60.0, mid - 40, "standard scale", [(0.0, str(st))])
    # Right pane: one eps-scale step; plot the leading infinitesimal term.
    if residual.has_terms:
        q, c = residual.terms[0]
        label = str(residual)
        pos = _float(c, 2)
    else:
        label = "0"
        pos = 0.0
    pane(mid + 40, WIDTH - 60.0, f"eps-scale around {st}", [(pos, label)])
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
