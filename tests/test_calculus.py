"""Differentiation against the symbolic oracle, and the differential traces."""

import random
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings

from conftest import (
    expr_to_sympy,
    infinitesimals,
    nonzero_rationals,
    random_ratfunc_expr,
    sympy_to_fraction,
)
from lcfield.calculus import (
    DiffResult,
    derivative,
    product_rule_trace,
    second_derivative,
    second_differential_check,
)
from lcfield.errors import (
    DegenerateProgressionError,
    LCError,
    NotInfinitesimalError,
    UndecidableError,
)
from lcfield.expr import Add, Lit, Mul, eval_rational, parse
from lcfield.number import EPS, LCNumber, ZERO


def oracle_corpus(count, seed=11, want_second=False):
    """Random rational-function expressions with a non-singular sample point,
    paired with the sympy derivative value(s) at that point."""
    rng = random.Random(seed)
    x = sp.Symbol("x")
    out = []
    while len(out) < count:
        tree = random_ratfunc_expr(rng)
        sym = expr_to_sympy(tree)
        if x not in sym.free_symbols:
            continue
        x0 = F(rng.randint(-6, 6), rng.randint(1, 4))
        try:
            d1 = sympy_to_fraction(sp.diff(sym, x).subs(x, sp.Rational(x0.numerator, x0.denominator)))
            d2 = sympy_to_fraction(
                sp.diff(sym, x, 2).subs(x, sp.Rational(x0.numerator, x0.denominator))
            )
        except (ValueError, ZeroDivisionError):
            continue
        try:
            derivative(tree, x0)
            second_derivative(tree, x0)
        except LCError:
            continue
        out.append((tree, x0, d1, d2) if want_second else (tree, x0, d1))
    return out


class TestDerivative:
    def test_square_at_one(self):
        result = derivative(parse("x^2"), 1)
        assert result == DiffResult(F(2), LCNumber.parse("2 + eps"))

    def test_constant(self):
        assert derivative(parse("5"), 3).derivative_value == 0

    def test_cube_at_two(self):
        assert derivative(parse("x^3"), 2).derivative_value == 12

    def test_pre_shadow_shadows_the_derivative(self):
        result = derivative(parse("1/x"), 2)
        assert result.pre_shadow.st() == result.derivative_value == F(-1, 4)

    def test_sqrt_of_infinitesimal_increment(self):
        # y = sqrt(x) at 0 has an unlimited differential quotient, yet the
        # field itself handles eps^(1/2) without complaint.
        quotient = derivative(parse("sqrt(x)"), 1).derivative_value
        assert quotient == F(1, 2)

    def test_increment_must_be_infinitesimal(self):
        with pytest.raises(NotInfinitesimalError):
            derivative(parse("x^2"), 1, increment=LCNumber.from_rational(1))
        with pytest.raises(NotInfinitesimalError):
            derivative(parse("x^2"), 1, increment=ZERO)

    def test_independent_of_increment_choice(self):
        for src, x0 in [("x^2", F(1)), ("x^3 - x", F(2)), ("1/(x+1)", F(1, 2))]:
            with_eps = derivative(parse(src), x0).derivative_value
            with_eps2 = derivative(parse(src), x0, increment=EPS * EPS).derivative_value
            with_scaled = derivative(parse(src), x0, increment=EPS * 3).derivative_value
            assert with_eps == with_eps2 == with_scaled

    def test_oracle_equivalence(self):
        for tree, x0, expected in oracle_corpus(120):
            assert derivative(tree, x0).derivative_value == expected

    def test_linearity(self):
        rng = random.Random(3)
        for (f, x0, _), (g, _, _) in zip(oracle_corpus(10, seed=5), oracle_corpus(10, seed=6)):
            a, b = F(rng.randint(1, 5)), F(rng.randint(1, 5))
            combo = Add(Mul(Lit(a), f), Mul(Lit(b), g))
            try:
                lhs = derivative(combo, x0).derivative_value
            except LCError:
                continue
            rhs = a * derivative(f, x0).derivative_value + b * derivative(g, x0).derivative_value
            assert lhs == rhs

    def test_product_rule_exact(self):
        # Both factors differentiated at the same shared point.
        for (f, x0, df), (g, _, _) in zip(oracle_corpus(15, seed=8), oracle_corpus(15, seed=9)):
            try:
                lhs = derivative(Mul(f, g), x0).derivative_value
                dg = derivative(g, x0).derivative_value
                fv = eval_rational(f, {"x": x0})
                gv = eval_rational(g, {"x": x0})
            except LCError:
                continue
            assert lhs == fv * dg + gv * df


class TestSecondDerivative:
    def test_square(self):
        assert second_derivative(parse("x^2"), 7) == 2

    def test_fourth_power(self):
        assert second_derivative(parse("x^4"), 1) == 12

    def test_reciprocal(self):
        assert second_derivative(parse("1/x"), 1) == 2

    def test_oracle_equivalence(self):
        for tree, x0, _, expected in oracle_corpus(40, seed=21, want_second=True):
            assert second_derivative(tree, x0) == expected


class TestProductRuleTrace:
    def test_first_order_increments(self):
        trace = product_rule_trace(2, 3, EPS, EPS)
        assert str(trace.expansion) == "5*eps + eps^(2)"
        assert str(trace.kept) == "5*eps"
        assert str(trace.discarded) == "eps^(2)"

    def test_zero_increment_discards_nothing(self):
        trace = product_rule_trace(2, 3, ZERO, EPS)
        assert trace.expansion == EPS * 2
        assert trace.discarded == ZERO

    def test_mixed_orders(self):
        trace = product_rule_trace(2, 3, EPS, EPS * EPS)
        assert trace.discarded == EPS.pow_int(3)
        assert trace.kept == EPS * 3 + EPS * EPS * 2

    def test_rejects_non_infinitesimal(self):
        with pytest.raises(NotInfinitesimalError):
            product_rule_trace(2, 3, LCNumber.from_rational(1), EPS)

    @given(nonzero_rationals, nonzero_rationals, infinitesimals, infinitesimals)
    @settings(max_examples=200)
    def test_expansion_is_exact_and_discard_is_higher_order(self, u0, v0, du, dv):
        trace = product_rule_trace(u0, v0, du, dv)
        assert trace.expansion == dv * u0 + du * v0 + du * dv
        assert trace.discarded.leading_exponent > (dv * u0).leading_exponent
        assert trace.discarded.leading_exponent > (du * v0).leading_exponent

    def test_repr(self):
        assert repr(product_rule_trace(2, 3, EPS, EPS)) == (
            "ProductRuleTrace(expansion=LCNumber('5*eps + eps^(2)'), kept=LCNumber('5*eps'), "
            "discarded=LCNumber('eps^(2)'))")


def sympy_second_differential_residual(v_src, a, g_src, t0):
    """Independent check: build the same grid symbolically and take the
    limit of (LHS - RHS) as the increment tends to zero."""
    t, e, xs = sp.Symbol("t"), sp.Symbol("e", positive=True), sp.Symbol("x")
    g = expr_to_sympy(parse(g_src)).subs(sp.Symbol("t"), t)
    vf = expr_to_sympy(parse(v_src))
    xvar = list(vf.free_symbols)[0] if vf.free_symbols else xs
    x = [g.subs(t, sp.Rational(t0) + i * e) for i in range(3)]
    v = [vf.subs(xvar, xi) for xi in x]
    y = [xi * vi / sp.Rational(a) for xi, vi in zip(x, v)]
    dx, dv = x[1] - x[0], v[1] - v[0]
    ddx = x[2] - 2 * x[1] + x[0]
    ddv = v[2] - 2 * v[1] + v[0]
    ddy = y[2] - 2 * y[1] + y[0]
    lhs = ddy / ddx
    rhs = (x[0] / sp.Rational(a)) * (ddv / ddx) + v[0] / sp.Rational(a) + (
        2 / sp.Rational(a)
    ) * (dx * dv) / ddx
    return sp.limit(sp.simplify(lhs - rhs), e, 0)


class TestSecondDifferentialCheck:
    def test_square_progression(self):
        report = second_differential_check(parse("x^2"), 1, parse("t^2"), 1)
        assert report.ok
        assert sympy_second_differential_residual("x^2", 1, "t^2", 1) == 0

    def test_constant_v(self):
        report = second_differential_check(parse("7"), 2, parse("t^2 + t"), 1)
        assert report.ok

    def test_linear_progression_is_degenerate(self):
        with pytest.raises(DegenerateProgressionError):
            second_differential_check(parse("x^2"), 1, parse("t"), 1)

    def test_randomized_against_taylor_oracle(self):
        rng = random.Random(13)
        done = 0
        while done < 10:
            # Polynomial v and quadratic-or-cubic g with nonzero curvature.
            v_src = f"{rng.randint(1, 3)}*x^{rng.randint(1, 3)} + {rng.randint(-3, 3)}*x"
            g_src = f"{rng.randint(1, 2)}*t^{rng.randint(2, 3)} + {rng.randint(-2, 2)}*t"
            a = rng.choice([1, 2, 3, 5])
            t0 = F(rng.randint(-3, 3))
            try:
                report = second_differential_check(parse(v_src), a, parse(g_src), t0)
            except DegenerateProgressionError:
                continue
            assert report.shadow_residual == 0
            assert sympy_second_differential_residual(v_src, a, g_src, t0) == 0
            done += 1


class TestSecondDifferentialCheckErrors:
    def test_zero_parameter_is_rejected(self):
        with pytest.raises(ValueError, match="parameter a must be nonzero"):
            second_differential_check(parse("x^2"), 0, parse("t^2"), 1)

    def test_second_difference_hidden_by_truncation_is_undecidable(self):
        # At depth 1 the second difference of sqrt(1+t) is a term-less O(eps^2).
        with pytest.raises(UndecidableError):
            second_differential_check(parse("x"), 1, parse("sqrt(1+t)"), 0, depth=1)
