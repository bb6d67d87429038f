"""Static SVG plots for the CLI.

Output is SVG 1.1 with a fixed 640x480 viewBox.  Panes are mapped in exact
rationals and coordinates rounded half to even at two decimals, with no float:
the same input always yields byte-identical markup.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .number import LCNumber, Rational, rational_text

WIDTH = 640
HEIGHT = 480

_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
    f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>'
)


def _fmt(v: Rational) -> str:
    """v rounded half to even at two decimals, signed if v < 0 (-1/1000 is -0.00, as
    ``.2f`` prints it)."""
    n, d = 100 * v.numerator, v.denominator
    q, r = divmod(abs(n), d)
    if 2 * r > d or 2 * r == d and q & 1:
        q += 1
    digits = rational_text(q).rjust(3, "0")
    return f"{'-' if n < 0 else ''}{digits[:-2]}.{digits[-2:]}"


def _clamp(v: Rational, bound: int = 10**12) -> Rational:
    """v clamped to [-bound, bound], so that a far-off value is drawn at a bounded place."""
    return max(-bound, min(bound, v))


def _map(v: Rational, lo: int, hi: int, start: int, end: int) -> Fraction:
    """The pixel of v when [lo, hi] spans the pixels from start to end."""
    return start + Fraction(v - lo, hi - lo) * (end - start)


def parabola_svg(
    coeffs: tuple[Fraction, Fraction, Fraction],
    points: Sequence[tuple[Fraction, Fraction]],
) -> str:
    """Shadow parabola y = A*x^2 + B*x + C with the sampled shadow points."""
    A, B, C = (_clamp(c) for c in coeffs)

    def pixel(x: Rational, y: Rational) -> tuple[Fraction, Fraction]:
        # [-6, 6] x [-2, 10] on the pane inside a 40-pixel margin; SVG y grows downward.
        return _map(x, -6, 6, 40, WIDTH - 40), _map(y, -2, 10, HEIGHT - 40, 40)

    parts = [_HEADER]
    # Axes.
    y_axis_x, x_axis_y = pixel(0, 0)
    parts.append(
        f'<line x1="40" y1="{_fmt(x_axis_y)}" x2="{WIDTH - 40}" y2="{_fmt(x_axis_y)}" '
        'stroke="#888" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(y_axis_x)}" y1="40" x2="{_fmt(y_axis_x)}" y2="{HEIGHT - 40}" '
        'stroke="#888" stroke-width="1"/>'
    )
    # Parabola polyline: 96 steps of 1/8 across [-6, 6].
    curve = (pixel(x, (A * x + B) * x + C) for x in (Fraction(t, 8) for t in range(-48, 49)))
    samples = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in curve)
    parts.append(
        f'<polyline points="{samples}" fill="none" stroke="#1f77b4" '
        'stroke-width="2"/>'
    )
    # Sample points.
    for x, y in points:
        cx, cy = pixel(_clamp(x), _clamp(y))
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="5" fill="#d62728"/>')
        parts.append(
            f'<text x="{_fmt(cx + 8)}" y="{_fmt(cy - 8)}" font-size="14" '
            f'font-family="monospace">({rational_text(x)},{rational_text(y)})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def zoom_svg(value: LCNumber) -> str:
    """Two panes: the standard number line, and an eps-scale pane around the
    value's standard part where its infinitesimal part becomes visible."""
    st = value.st()
    residual = value - st
    mid = WIDTH // 2
    parts = [_HEADER]
    parts.append(
        f'<line x1="{_fmt(mid)}" y1="20" x2="{_fmt(mid)}" y2="{HEIGHT - 20}" '
        'stroke="#ccc" stroke-width="1"/>'
    )
    mid_y = HEIGHT // 2

    def pane(left: int, right: int, title: str, pos: Rational, label: str) -> None:
        parts.append(
            f'<text x="{_fmt(Fraction(left + right, 2))}" y="60" text-anchor="middle" '
            f'font-size="16" font-family="monospace">{title}</text>'
        )
        parts.append(
            f'<line x1="{_fmt(left)}" y1="{_fmt(mid_y)}" x2="{_fmt(right)}" '
            f'y2="{_fmt(mid_y)}" stroke="#333" stroke-width="2"/>'
        )
        cx = _map(pos, -2, 2, left, right)
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(mid_y)}" r="5" fill="#d62728"/>')
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(mid_y + 28)}" text-anchor="middle" '
            f'font-size="14" font-family="monospace">{label}</text>'
        )

    # Left pane: the standard scale; the whole monad sits on one point.
    pane(60, mid - 40, "standard scale", 0, rational_text(st))
    # Right pane: one eps-scale step; plot the leading infinitesimal term.
    label, pos = "0", 0
    if residual.has_terms:
        label, pos = str(residual), _clamp(residual.terms[0][1], 2)
    pane(mid + 40, WIDTH - 60, f"eps-scale around {rational_text(st)}", pos, label)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
