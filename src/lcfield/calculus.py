"""Differentiation by infinitesimal increment and standard part.

The derivative of ``f`` at ``x0`` is obtained exactly as the shadow of the
differential quotient: evaluate ``f`` at ``x0 + eps``, subtract ``f(x0)``,
divide by ``eps``, and take the standard part.  Nothing is rounded and no
limit is computed; the discarded infinitesimal remainder stays visible in
``pre_shadow``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import DegenerateProgressionError, InvalidArgumentError, NotInfinitesimalError
from .expr import Expr, eval_field, free_vars
from .number import DEFAULT_DEPTH, EPS, LCNumber, Rational, _exact, record


def _single_var(f: Expr) -> str:
    names = free_vars(f)
    if len(names) > 1:
        raise InvalidArgumentError(
            f"expected a univariate expression, got variables {sorted(names)}"
        )
    return next(iter(names)) if names else "x"


def _progression(
    f: Expr, start: Rational, step: LCNumber, depth: int, count: int
) -> list[LCNumber]:
    """Values of the univariate ``f`` at ``start + i*step`` for ``i < count``."""
    var = _single_var(f)
    x0 = LCNumber.from_rational(start)
    return [eval_field(f, {var: x0 + step * i}, depth) for i in range(count)]


def _second_difference(values: list[LCNumber]) -> LCNumber:
    v0, v1, v2 = values
    return v2 - v1 * 2 + v0


@record
class DiffResult:
    """Derivative value together with the differential quotient it shadows."""

    derivative_value: Fraction
    pre_shadow: LCNumber


def derivative(
    f: Expr,
    x0: Rational,
    depth: int = DEFAULT_DEPTH,
    increment: Optional[LCNumber] = None,
) -> DiffResult:
    """Differentiate a univariate expression at a rational point.

    ``increment`` defaults to ``eps``; any nonzero infinitesimal may be
    passed instead, and for rational-function expressions the result does
    not depend on the choice.
    """
    h = EPS if increment is None else LCNumber._coerce(increment)
    if not h.has_terms or not h.is_infinitesimal():
        raise NotInfinitesimalError("increment must be a nonzero infinitesimal")
    at_x0, shifted = _progression(f, x0, h, depth, 2)
    pre_shadow = (shifted - at_x0) * h.inv(depth)
    return DiffResult(pre_shadow.st(), pre_shadow)


def second_derivative(f: Expr, x0: Rational, depth: int = DEFAULT_DEPTH) -> Fraction:
    """Shadow of the second difference quotient on the grid x0, x0+eps, x0+2eps."""
    second = _second_difference(_progression(f, x0, EPS, depth, 3))
    return (second * (EPS * EPS).inv(depth)).st()


@record
class ProductRuleTrace:
    """The increment of uv in three stages: ``expansion`` is the exact ``u*dv + v*du + du*dv``,
    ``kept`` what survives the dominant-order reduction, and ``discarded`` the rejected
    higher-order term ``du*dv``."""

    expansion: LCNumber
    kept: LCNumber
    discarded: LCNumber


def product_rule_trace(
    u0: Rational, v0: Rational, du: LCNumber, dv: LCNumber
) -> ProductRuleTrace:
    """Expand (u+du)(v+dv) - uv and split it into kept and discarded parts."""
    du, dv = LCNumber._coerce(du), LCNumber._coerce(dv)
    for name, d in (("du", du), ("dv", dv)):
        if not d.is_infinitesimal():
            raise NotInfinitesimalError(f"{name} = {d} is not infinitesimal")
    u0, v0 = Fraction(_exact(u0)), Fraction(_exact(v0))
    expansion = (du + u0) * (dv + v0) - u0 * v0
    return ProductRuleTrace(expansion, dv * u0 + du * v0, du * dv)


@record
class SecondDifferentialReport:
    """Both sides of the second-differential relation and their difference's shadow."""

    lhs: LCNumber
    rhs: LCNumber
    shadow_residual: Fraction

    @property
    def ok(self) -> bool:
        return self.shadow_residual == 0


def second_differential_check(
    v: Expr,
    a: Rational,
    g: Expr,
    t0: Rational,
    depth: int = DEFAULT_DEPTH,
) -> SecondDifferentialReport:
    """Verify the second-differential relation for y = x*v(x)/a on a
    nonuniform progression x_i = g(t0 + i*eps).

    Both sides of

        ddy/ddx = (x/a)*(ddv/ddx) + v/a + (2/a)*(dx*dv)/ddx

    are evaluated in the field and the standard part of their difference is
    reported; it vanishes for twice-differentiable data.  The progression
    must be genuinely nonuniform (ddx != 0), which requires g nonlinear.
    """
    a = Fraction(_exact(a))
    if a == 0:
        raise InvalidArgumentError("parameter a must be nonzero")
    xs = _progression(g, t0, EPS, depth, 3)
    ddx = _second_difference(xs)
    # The same test as second_derivative(g, t0, depth) == 0, on the values at hand.
    if (ddx * (EPS * EPS).inv(depth)).st() == 0:
        raise DegenerateProgressionError("progression has vanishing second differences")
    xvar = _single_var(v)
    vs = [eval_field(v, {xvar: x}, depth) for x in xs]
    ys = [x * w * Fraction(1, a) for x, w in zip(xs, vs)]

    dx = xs[1] - xs[0]
    dv = vs[1] - vs[0]
    ddv = _second_difference(vs)
    ddy = _second_difference(ys)
    inv_ddx = ddx.inv(depth)
    lhs = ddy * inv_ddx
    rhs = (xs[0] * ddv + dx * dv * 2) * inv_ddx * Fraction(1, a) + vs[0] * Fraction(1, a)
    return SecondDifferentialReport(lhs, rhs, (lhs - rhs).st())
