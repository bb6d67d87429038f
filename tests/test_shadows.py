"""Shadow constructions: oblique line, deformed conic, secant slope."""

import random
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings

from conftest import expr_to_sympy, random_ratfunc_expr, rationals, sympy_to_fraction
from lcfield.calculus import derivative
from lcfield.errors import LCError, NotUnlimitedError, UndecidableError
from lcfield.expr import eval_rational, parse
from lcfield.number import EPS, LCNumber, ONE
from lcfield.number import parse as parse_number
from lcfield.shadows import (
    CONIC_LHS_SRC,
    _fit_parabola,
    conic_chain_residuals,
    conic_point,
    conic_shadow,
    default_unlimited,
    line_LH_shadow,
    line_LH_slope,
    rederive_conic_chain,
    secant_to_tangent,
    status_transitus_residual,
)

UNLIMITEDS = [
    EPS.inv(),
    EPS.inv() * 7,
    EPS.inv() + 3,
    EPS.inv() * EPS.inv(),
    EPS.nth_root(2).inv(),
    EPS.inv() - EPS,
]


class TestLine:
    @given(rationals)
    @settings(max_examples=100)
    def test_shadow_is_horizontal_line(self, x):
        assert line_LH_shadow(x) == (x, 1)

    def test_any_unlimited_intercept_gives_same_shadow(self):
        for H in UNLIMITEDS:
            assert line_LH_shadow(F(3), H) == (F(3), 1)

    def test_slope_is_negative_infinitesimal(self):
        slope = line_LH_slope()
        assert slope.is_infinitesimal()
        assert slope < 0

    def test_limited_intercept_rejected(self):
        with pytest.raises(NotUnlimitedError):
            line_LH_shadow(F(1), LCNumber.from_rational(100))
        with pytest.raises(NotUnlimitedError):
            line_LH_slope(ONE + EPS)


class TestConicShadow:
    def test_sample_points(self):
        state = conic_shadow(default_unlimited(), [0, 1, -1, 2, -2, 4, -4])
        assert state.shadow_coeffs == (F(1, 4), F(0), F(-1))
        assert dict(state.points) == {
            F(0): F(-1),
            F(1): F(-3, 4),
            F(-1): F(-3, 4),
            F(2): F(0),
            F(-2): F(0),
            F(4): F(3),
            F(-4): F(3),
        }

    def test_H_independence(self):
        for H in UNLIMITEDS:
            state = conic_shadow(H, [0, 2, 4])
            assert state.shadow_coeffs == (F(1, 4), F(0), F(-1))

    def test_fit_is_exact_through_any_three_abscissas(self):
        A, B, C = F(2, 3), F(-1, 2), F(5)
        points = [(x, A * x * x + B * x + C) for x in (F(3), F(-2), F(1, 7), F(0))]
        assert _fit_parabola(points) == (A, B, C)

    def test_points_off_one_parabola_raise(self):
        points = [(F(0), F(0)), (F(1), F(1)), (F(2), F(4)), (F(3), F(10))]
        with pytest.raises(ArithmeticError, match="^sample points do not lie on one parabola$"):
            _fit_parabola(points)

    @given(rationals, rationals)
    @settings(max_examples=100)
    def test_residual_standard_part(self, x, y):
        got = status_transitus_residual(default_unlimited(), x, y).st()
        assert got == eval_rational(
            parse("(y+2)^2 - (x^2+y^2)"), {"x": F(x), "y": F(y)}
        )

    def test_rederivation_matches_printed_coefficients(self):
        assert rederive_conic_chain() == (F(1, 4), F(0), F(-1))

    def test_rederivation_against_symbolic_expansion(self):
        x, y, H = sp.symbols("x y H")
        chain = ((H + 2) ** 2 - ((x**2 + y**2) + (x**2 + (y - H) ** 2))) ** 2 - 4 * (
            x**2 + y**2
        ) * (x**2 + (y - H) ** 2)
        recorded = 4 * H**2 * expr_to_sympy(parse(CONIC_LHS_SRC))
        assert sp.expand(chain - recorded) == 0


class TestConicPoint:
    def test_focal_property(self):
        # Sum of distances to the two foci is H + 2, up to truncation.
        H = default_unlimited()
        for x in (0, 1, 2, 4, F(1, 2)):
            residuals = conic_chain_residuals(H, x)
            for r in residuals:
                assert not r.terms, (x, r)
                assert r.trunc is not None

    def test_point_shadows_onto_parabola(self):
        H = default_unlimited()
        for x in (0, 1, 2, 3, 4):
            y = conic_point(H, x)
            assert y.st() == F(x) ** 2 / 4 - 1

    def test_point_lies_infinitesimally_below_shadow(self):
        # For finite x the true conic point sits infinitesimally off the
        # parabola; the difference is a nonzero infinitesimal.
        H = default_unlimited()
        y = conic_point(H, 2)
        gap = y - LCNumber.from_rational(F(0))
        assert gap.is_infinitesimal()
        assert gap.terms

    def test_requires_unlimited_H(self):
        with pytest.raises(NotUnlimitedError):
            conic_point(LCNumber.from_rational(10), 1)

    def test_infinitesimal_point_through_termless_products(self):
        # y = 2/3*eps^(9/11) + ... at x = 2: no term of it is known below
        # depth 64 (steps of 1/77), yet a sound product of O() factors still
        # shows that y is limited.
        H = parse_number("3*eps^(-9/11) - 3 - eps^(4/7)")
        y = conic_point(H, 2, depth=16)
        assert y == parse_number("O(eps^(16/77))")
        assert y.st() == 0

    def test_no_decidable_root_is_undecidable(self):
        H = parse_number("3*eps^(-9/11) - 3 - eps^(4/7)")
        with pytest.raises(UndecidableError, match="at depth 1$"):
            conic_point(H, 2, depth=1)


def secant_corpus(count, seed=31):
    rng = random.Random(seed)
    xsym = sp.Symbol("x")
    out = []
    while len(out) < count:
        tree = random_ratfunc_expr(rng)
        sym = expr_to_sympy(tree)
        if xsym not in sym.free_symbols:
            continue
        x0 = F(rng.randint(-5, 5), rng.randint(1, 3))
        try:
            expected = sympy_to_fraction(
                sp.diff(sym, xsym).subs(xsym, sp.Rational(x0.numerator, x0.denominator))
            )
            derivative(tree, x0)
        except (ValueError, ZeroDivisionError, LCError):
            continue
        out.append((tree, x0, expected))
    return out


class TestSecant:
    def test_square(self):
        assert secant_to_tangent(parse("x^2"), 1) == 2

    def test_agrees_with_differentiation(self):
        for tree, x0, expected in secant_corpus(60):
            assert secant_to_tangent(tree, x0) == expected
            assert derivative(tree, x0).derivative_value == expected
