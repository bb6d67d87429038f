"""Assignable shadows of inassignable geometric objects.

Three constructions: the horizontal line as shadow of an oblique line whose
x-intercept is unlimited; the parabola as shadow of an ellipse whose second
focus is infinitely distant; and the tangent slope as shadow of a secant
through two infinitely close points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .calculus import derivative
from .errors import (
    InconsistentRelationError, InvalidArgumentError, NotUnlimitedError, UndecidableError
)
from .expr import Expr, eval_field, eval_rational, parse
from .number import DEFAULT_DEPTH, EPS, LCNumber, Rational

#: Left side of the twice-squared ellipse equation (vertex (0,-1), foci at
#: the origin and (0,H)); the locus is its zero set.
CONIC_LHS_SRC = "(y + 2 + 2/H)^2 - (x^2 + y^2)*(1 + 4/H + 4/H^2)"
#: Its syntax tree, parsed once.
CONIC_LHS = parse(CONIC_LHS_SRC)


def default_unlimited() -> LCNumber:
    """The default infinite parameter H = 1/eps."""
    return EPS.inv()


def _require_unlimited(H: LCNumber) -> None:
    try:
        limited = H.is_limited()
    except UndecidableError:
        raise NotUnlimitedError(f"H = {H} is not decidably unlimited") from None
    if limited:
        raise NotUnlimitedError(f"H = {H} is limited")


# ---------------------------------------------------------------------------
# Oblique line with unlimited x-intercept
# ---------------------------------------------------------------------------


def line_LH_shadow(
    x: Rational, H: LCNumber | None = None, depth: int = DEFAULT_DEPTH
) -> tuple[Fraction, Fraction]:
    """Shadow of the point of y = 1 - x/H above a finite x, for unlimited H.

    Always lands on the horizontal line y = 1.
    """
    if H is None:
        H = default_unlimited()
    _require_unlimited(H)
    x = Fraction(x)
    y = eval_field(parse("1 - x/H"), {"x": x, "H": H}, depth)
    point = (x, y.st())
    assert point[1] == 1
    return point


def line_LH_slope(H: LCNumber | None = None, depth: int = DEFAULT_DEPTH) -> LCNumber:
    """Slope of the oblique line; infinitesimal (and negative) for unlimited H."""
    if H is None:
        H = default_unlimited()
    _require_unlimited(H)
    return -H.inv(depth)


# ---------------------------------------------------------------------------
# Ellipse with an infinitely distant focus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConicState:
    """The deformed conic for a given unlimited H, with its parabola shadow."""

    H: LCNumber
    lhs_expr: Expr
    shadow_coeffs: tuple[Fraction, Fraction, Fraction]  # y0 = A*x0^2 + B*x0 + C
    points: tuple[tuple[Fraction, Fraction], ...]


def status_transitus_residual(
    H: LCNumber, x: Rational, y: Rational, depth: int = DEFAULT_DEPTH
) -> LCNumber:
    """Value of the twice-squared conic equation's left side at finite (x, y).

    Its standard part is (y+2)^2 - (x^2+y^2), which vanishes exactly when
    (x, y) lies on the shadow parabola.
    """
    _require_unlimited(H)
    return eval_field(CONIC_LHS, {"x": Fraction(x), "y": Fraction(y), "H": H}, depth)


def _shadow_y(H: LCNumber, x0: Fraction, depth: int) -> Fraction:
    """Solve st(residual(x0, y)) = 0 for y.

    The standard-part image of the conic equation is interpolated as a
    polynomial in y from three probes; the quadratic coefficient cancels, so
    the relation is linear in y and solved exactly.
    """
    probes = [(Fraction(y), status_transitus_residual(H, x0, y, depth).st()) for y in range(3)]
    c2, c1, c0 = _fit_parabola(probes)
    if c2 != 0:
        raise InconsistentRelationError("shadow relation is not linear in y")
    if c1 == 0:
        raise InconsistentRelationError("shadow relation does not determine y")
    return -c0 / c1


def _fit_parabola(
    points: Sequence[tuple[Fraction, Fraction]]
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact least-degree fit y = A*x^2 + B*x + C through >= 3 distinct x."""
    distinct: dict[Fraction, Fraction] = {}
    for x, y in points:
        distinct[x] = y
    if len(distinct) < 3:
        raise InvalidArgumentError("need at least 3 distinct sample abscissas")
    (x1, y1), (x2, y2), (x3, y3) = list(distinct.items())[:3]
    # Newton divided differences: y = y1 + d12*(x - x1) + A*(x - x1)*(x - x2).
    d12 = (y2 - y1) / (x2 - x1)
    A = ((y3 - y2) / (x3 - x2) - d12) / (x3 - x1)
    B = d12 - A * (x1 + x2)
    C = y1 - d12 * x1 + A * x1 * x2
    for x, y in distinct.items():
        if A * x * x + B * x + C != y:
            raise InconsistentRelationError("sample points do not lie on one parabola")
    return A, B, C


def conic_shadow(
    H: LCNumber, samples: Iterable[Rational], depth: int = DEFAULT_DEPTH
) -> ConicState:
    """Shadow parabola of the deformed conic, sampled at finite abscissas."""
    _require_unlimited(H)
    points = []
    for x0 in samples:
        x0 = Fraction(x0)
        y0 = _shadow_y(H, x0, depth)
        assert y0 == x0 * x0 / 4 - 1
        points.append((x0, y0))
    coeffs = _fit_parabola(points)
    return ConicState(H, CONIC_LHS, coeffs, tuple(points))


def rederive_conic_chain() -> tuple[Fraction, Fraction, Fraction]:
    """Re-derive the twice-squared equation from the two-radical one.

    Squaring the radical equation twice yields the polynomial relation
    ((H+2)^2 - (A+B))^2 = 4*A*B with A = x^2+y^2 and B = x^2+(y-H)^2.  This
    function verifies, by exact evaluation on a grid large enough to pin a
    polynomial of the relevant degree, that the relation coincides with
    4*H^2 times the recorded left side, and returns the coefficients of the
    shadow parabola implied by its standard-part image.

    Raises InconsistentRelationError on any mismatch.
    """
    chain = parse(
        "((H+2)^2 - ((x^2+y^2) + (x^2+(y-H)^2)))^2 - 4*(x^2+y^2)*(x^2+(y-H)^2)"
    )
    recorded = parse(f"4*H^2*({CONIC_LHS_SRC})")
    # Total degree <= 8 in each variable; 9 distinct values per variable pin it.
    for xv in range(-4, 5):
        for yv in range(-4, 5):
            for hv in range(1, 10):
                binding = {"x": Fraction(xv), "y": Fraction(yv), "H": Fraction(hv)}
                if eval_rational(chain, binding) != eval_rational(recorded, binding):
                    raise InconsistentRelationError(
                        f"squaring chain disagrees with recorded form at {binding}"
                    )
    # Shadow parabola from the derived relation, via the standard-part probe.
    H = default_unlimited()
    pts = [(Fraction(x0), _shadow_y(H, Fraction(x0), DEFAULT_DEPTH)) for x0 in (0, 2, 4)]
    return _fit_parabola(pts)


def conic_point(
    H: LCNumber, x: Rational, depth: int = DEFAULT_DEPTH
) -> LCNumber:
    """The finite y with (x, y) on the deformed conic, as a truncated series.

    Raises UndecidableError when no root is decidably limited at this depth.
    """
    _require_unlimited(H)
    x = LCNumber.from_rational(Fraction(x))
    Hinv = H.inv(depth)
    # Quadratic a2*y^2 + a1*y + a0 = 0 from the twice-squared equation.
    four_terms = Hinv * 4 + Hinv * Hinv * 4
    a2 = -four_terms
    a1 = (LCNumber.from_rational(2) + Hinv * 2) * 2
    a0 = (LCNumber.from_rational(2) + Hinv * 2).pow_int(2) - x * x * (1 + four_terms)
    disc = a1 * a1 - a2 * a0 * 4
    root = disc.nth_root(2, depth)
    inv_2a2 = (a2 * 2).inv(depth)
    candidates = [(-a1 + root) * inv_2a2, (-a1 - root) * inv_2a2]
    for y in candidates:
        try:
            if y.is_limited():
                return y
        except UndecidableError:
            continue
    raise UndecidableError(f"no decidably limited intersection found at depth {depth}")


def conic_chain_residuals(
    H: LCNumber, x: Rational, depth: int = DEFAULT_DEPTH
) -> list[LCNumber]:
    """Residuals of every equation in the squaring chain at a conic point.

    Each residual is zero up to truncation when (x, y) lies on the deformed
    conic: the radical equation, its square, the isolated-radical form, and
    the final polynomial form.
    """
    _require_unlimited(H)
    y = conic_point(H, x, depth)
    x = LCNumber.from_rational(Fraction(x))
    A = x * x + y * y
    B = x * x + (y - H) * (y - H)
    rad_a = A.nth_root(2, depth)
    rad_b = B.nth_root(2, depth)
    rad_ab = (A * B).nth_root(2, depth)
    rhs1 = H + 2
    residuals = [
        rad_a + rad_b - rhs1,
        A + B + rad_ab * 2 - rhs1 * rhs1,
        rad_ab * 2 - (rhs1 * rhs1 - A - B),
        eval_field(CONIC_LHS, {"x": x, "y": y, "H": H}, depth),
    ]
    return residuals


# ---------------------------------------------------------------------------
# Secant through infinitely close points
# ---------------------------------------------------------------------------


def secant_to_tangent(f: Expr, x0: Rational, depth: int = DEFAULT_DEPTH) -> Fraction:
    """Shadow of the chord slope through x0 and x0 + eps."""
    return derivative(f, x0, depth).derivative_value
