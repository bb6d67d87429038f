"""Assignable shadows of inassignable geometric objects.

Three constructions: the horizontal line as shadow of an oblique line whose
x-intercept is unlimited; the parabola as shadow of an ellipse whose second
focus is infinitely distant; and the tangent slope as shadow of a secant
through two infinitely close points.  The ellipse is one polynomial relation,
``CONIC_LHS``: its points solve it as a quadratic in y, the parabola is read from
it by the law of homogeneity, which drops the inassignable part of each
coefficient, and the squaring chain behind it is checked as an exact identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from typing import Iterable

from .calculus import derivative
from .errors import (
    InconsistentRelationError, InvalidArgumentError, NotUnlimitedError, UndecidableError
)
from .expr import (
    Add, Div, Expr, Lit, Mul, Neg, Pow, Sqrt, Sub, Var, _lookup, eval_field, fold, parse
)
from .number import DEFAULT_DEPTH, EPS, ONE, ZERO, LCNumber, Rational, _exact, rational_text, record

#: Left side of the twice-squared ellipse equation (vertex (0,-1), foci at
#: the origin and (0,H)); the locus is its zero set.
CONIC_LHS_SRC = "(y + 2 + 2/H)^2 - (x^2 + y^2)*(1 + 2/H)^2"
#: Its syntax tree, parsed once.
CONIC_LHS = parse(CONIC_LHS_SRC)


def default_unlimited() -> LCNumber:
    """The default infinite parameter H = 1/eps."""
    return EPS.inv()


def _require_unlimited(H: LCNumber) -> LCNumber:
    """H as an LCNumber, once it is decidably unlimited."""
    H = LCNumber._coerce(H)
    try:
        limited = H.is_limited()
    except UndecidableError:
        raise NotUnlimitedError(f"H = {H} is not decidably unlimited") from None
    if limited:
        raise NotUnlimitedError(f"H = {H} is limited")
    return H


# ---------------------------------------------------------------------------
# Oblique line with unlimited x-intercept
# ---------------------------------------------------------------------------


def line_LH_shadow(
    x: Rational, H: LCNumber | None = None, depth: int = DEFAULT_DEPTH
) -> tuple[Fraction, Fraction]:
    """Shadow of the point of y = 1 - x/H above a finite x, for unlimited H.

    Always lands on the horizontal line y = 1.
    """
    H = _require_unlimited(default_unlimited() if H is None else H)
    x = Fraction(_exact(x))
    return (x, (1 - x * H.inv(depth)).st())


def line_LH_slope(H: LCNumber | None = None, depth: int = DEFAULT_DEPTH) -> LCNumber:
    """Slope of the oblique line; infinitesimal (and negative) for unlimited H."""
    H = _require_unlimited(default_unlimited() if H is None else H)
    return -H.inv(depth)


# ---------------------------------------------------------------------------
# Ellipse with an infinitely distant focus
# ---------------------------------------------------------------------------


@record
class ConicState:
    """The shadow parabola of the deformed conic, with its points at the sampled abscissas."""

    shadow_coeffs: tuple[Fraction, Fraction, Fraction]  # y0 = A*x0^2 + B*x0 + C
    points: tuple[tuple[Fraction, Fraction], ...]


def status_transitus_residual(
    H: LCNumber, x: Rational, y: Rational, depth: int = DEFAULT_DEPTH
) -> LCNumber:
    """Value of the twice-squared conic equation's left side at finite (x, y).

    Its standard part is (y+2)^2 - (x^2+y^2), which vanishes exactly when
    (x, y) lies on the shadow parabola.
    """
    H = _require_unlimited(H)
    return eval_field(CONIC_LHS, {"x": _exact(x), "y": _exact(y), "H": H}, depth)


def _relation(e: Expr, H: LCNumber, depth: int) -> dict:
    """``e`` as a polynomial in x and y over the field, with H bound: a dict from
    (i, j) to the coefficient of x^i*y^j, an LCNumber that is not exactly zero.
    A power that is not a natural number, or a non-constant divisor, raises
    InconsistentRelationError."""

    def collect(pairs) -> dict:
        out: dict = {}
        for m, c in pairs:
            out[m] = out[m] + c if m in out else c
        return {m: c for m, c in out.items() if not c.is_zero}

    def mul(p: dict, q: dict) -> dict:
        return collect(((i + k, j + l), a * b)
                       for (i, j), a in p.items() for (k, l), b in q.items())

    inverse = cache(lambda c: c.inv(depth))  # a divisor met twice is inverted once

    def pow_(base: dict, q: Fraction) -> dict:
        if q.denominator != 1 or q < 0:
            text = rational_text(q)
            raise InconsistentRelationError(f"relation has the power {text}, not a natural number")
        return reduce(mul, [base] * q.numerator) if q else {(0, 0): ONE}

    def div(num: dict, den: dict) -> dict:
        if den.keys() - {(0, 0)}:
            raise InconsistentRelationError("relation divides by a non-constant")
        return mul(num, {(0, 0): inverse(den.get((0, 0), ZERO))})

    return fold(e, {
        Var: _lookup({"x": {(1, 0): ONE}, "y": {(0, 1): ONE}, "H": {(0, 0): H}}, dict),
        Lit: lambda value: collect([((0, 0), LCNumber.from_rational(value))]),
        Add: lambda p, q: collect([*p.items(), *q.items()]),
        Sub: lambda p, q: collect([*p.items(), *((m, -c) for m, c in q.items())]),
        Neg: lambda p: {m: -c for m, c in p.items()},
        Mul: mul,
        Pow: pow_,
        Div: div,
        Sqrt: lambda p: pow_(p, Fraction(1, 2)),
    })


def conic_shadow(
    H: LCNumber, samples: Iterable[Rational], depth: int = DEFAULT_DEPTH
) -> ConicState:
    """Shadow parabola of the deformed conic, read from CONIC_LHS, at finite abscissas."""
    H = _require_unlimited(H)
    shadow = {m: s for m, c in _relation(CONIC_LHS, H, depth).items() if (s := c.st())}
    if any(j > 1 for _, j in shadow):
        raise InconsistentRelationError("shadow relation is not linear in y")
    c1 = shadow.pop((0, 1), 0)
    if c1 == 0:
        raise InconsistentRelationError("shadow relation does not determine y")
    A, B, C = (-shadow.pop((i, 0), 0) / c1 for i in (2, 1, 0))
    if shadow:
        raise InconsistentRelationError(f"shadow relation is not a parabola: {sorted(shadow)}")
    xs = [Fraction(_exact(x0)) for x0 in samples]
    points = tuple((x0, A * x0 * x0 + B * x0 + C) for x0 in xs)
    if len(set(xs)) < 3:
        raise InvalidArgumentError("need at least 3 distinct sample abscissas")
    return ConicState((A, B, C), points)


def rederive_conic_chain() -> tuple[Fraction, Fraction, Fraction]:
    """Re-derive the twice-squared equation from the two-radical one.

    Squaring the radical equation twice yields ((H+2)^2 - (A+B))^2 = 4*A*B with
    A = x^2+y^2 and B = x^2+(y-H)^2.  At H = 1/eps, this relation minus 4*H^2
    times the recorded left side must vanish as an exact polynomial in x and y
    whose coefficients are Laurent polynomials in H: an identity, not a grid.
    Returns the shadow parabola's coefficients; raises InconsistentRelationError on a mismatch.
    """
    H = default_unlimited()
    difference = _relation(parse(
        "((H+2)^2 - ((x^2+y^2) + (x^2+(y-H)^2)))^2 - 4*(x^2+y^2)*(x^2+(y-H)^2)"
        f" - 4*H^2*({CONIC_LHS_SRC})"
    ), H, DEFAULT_DEPTH)
    if difference:
        i, j = min(difference)
        raise InconsistentRelationError(
            f"squaring chain disagrees with recorded form at x^{i}*y^{j}: {difference[i, j]}"
        )
    return conic_shadow(H, (0, 2, 4)).shadow_coeffs


def conic_point(
    H: LCNumber, x: Rational, depth: int = DEFAULT_DEPTH
) -> LCNumber:
    """The finite y with (x, y) on the deformed conic, as a truncated series: a root
    of CONIC_LHS read as a quadratic a2*y^2 + a1*y + a0 at this x.

    Raises UndecidableError when no root is decidably limited at this depth.
    """
    H = _require_unlimited(H)
    x = Fraction(_exact(x))
    relation = _relation(CONIC_LHS, H, depth)
    if max((j for _, j in relation), default=0) != 2:
        raise InconsistentRelationError("conic relation is not quadratic in y")
    a0, a1, a2 = (sum((c * x**i if i else c for (i, k), c in relation.items() if k == j), ZERO)
                  for j in range(3))
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
    y = conic_point(H, x, depth)  # which also checks H
    x = LCNumber.from_rational(x)
    A = x * x + y * y
    B = x * x + (y - H) * (y - H)
    rad_a = A.nth_root(2, depth)
    rad_b = B.nth_root(2, depth)
    rad_ab = (A * B).nth_root(2, depth)
    rhs1 = H + 2
    return [
        rad_a + rad_b - rhs1,
        A + B + rad_ab * 2 - rhs1 * rhs1,
        rad_ab * 2 - (rhs1 * rhs1 - A - B),
        eval_field(CONIC_LHS, {"x": x, "y": y, "H": H}, depth),
    ]


# ---------------------------------------------------------------------------
# Secant through infinitely close points
# ---------------------------------------------------------------------------


def secant_to_tangent(f: Expr, x0: Rational, depth: int = DEFAULT_DEPTH) -> Fraction:
    """Shadow of the chord slope through x0 and x0 + eps."""
    return derivative(f, x0, depth).derivative_value
