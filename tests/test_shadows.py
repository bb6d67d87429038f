"""Shadow constructions: oblique line, deformed conic, secant slope."""

import random
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    expr_to_sympy, nonzero_rationals, random_ratfunc_expr, rationals, sympy_to_fraction
)
from lcfield import expr, shadows
from lcfield.calculus import derivative
from lcfield.errors import (
    InconsistentRelationError,
    InvalidArgumentError,
    LCError,
    NotUnlimitedError,
    UndecidableError,
    UnlimitedError,
)
from lcfield.expr import Add, Div, Lit, Mul, Neg, Pow, Sub, Var, eval_field, eval_rational, parse
from lcfield.number import EPS, LCNumber, ONE, ZERO
from lcfield.number import parse as parse_number
from lcfield.shadows import (
    CONIC_LHS,
    CONIC_LHS_SRC,
    _relation,
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
    def test_repr(self):
        # The tuples of Fractions, nested ones too, print as repr prints them.
        assert repr(conic_shadow(default_unlimited(), (0, 2, 4))) == (
            "ConicState(shadow_coeffs=(Fraction(1, 4), Fraction(0, 1), Fraction(-1, 1)), "
            "points=((Fraction(0, 1), Fraction(-1, 1)), (Fraction(2, 1), Fraction(0, 1)), "
            "(Fraction(4, 1), Fraction(3, 1))))")

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

    def test_duplicate_samples_are_kept_in_order(self):
        state = conic_shadow(default_unlimited(), [4, 0, 0, 2, 4])
        assert state.points == ((4, 3), (0, -1), (0, -1), (2, 0), (4, 3))

    def test_default_relation_and_its_shadow(self):
        relation = _relation(CONIC_LHS, default_unlimited(), 16)
        assert {m: str(c) for m, c in relation.items()} == {
            (0, 2): "-4*eps - 4*eps^(2)",
            (0, 1): "4 + 4*eps",
            (0, 0): "4 + 8*eps + 4*eps^(2)",
            (2, 0): "-1 - 4*eps - 4*eps^(2)",
        }  # shadow: 4*y + 4 - x^2

    def test_another_conic_gives_its_own_parabola(self, monkeypatch):
        # Another ellipse with a focus at the origin, eccentricity H/(H + 3): its shadow is
        # read from the relation, not checked against the default conic's parabola.
        relation = parse("(y + 3 + 3/H)^2 - (x^2 + y^2)*(1 + 3/H)^2")
        monkeypatch.setattr(shadows, "CONIC_LHS", relation)
        state = conic_shadow(default_unlimited(), [0, 3, -5])
        assert state.shadow_coeffs == (F(1, 6), F(0), F(-3, 2))
        assert state.points == ((0, F(-3, 2)), (3, 0), (-5, F(8, 3)))

    def test_unlimited_coefficient_has_no_shadow(self, monkeypatch):
        monkeypatch.setattr(shadows, "CONIC_LHS", parse("H*y + 4*y + 4 - x^2"))
        with pytest.raises(UnlimitedError):
            conic_shadow(default_unlimited(), [0, 2, 4])

    def test_one_fold_per_call(self, monkeypatch):
        calls, fold = [], expr.fold

        def counting_fold(e, ring):
            calls.append(e)
            return fold(e, ring)

        monkeypatch.setattr(expr, "fold", counting_fold)
        monkeypatch.setattr(shadows, "fold", counting_fold)
        conic_shadow(default_unlimited(), range(-3, 4))
        assert calls == [CONIC_LHS]
        calls.clear()
        rederive_conic_chain()
        assert len(calls) == 2 and calls[1] == CONIC_LHS

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


# Reference: the construction conic_shadow made before it read one relation.
# Per sample, three probes y = 0, 1, 2 of the residual and a parabola in y
# through their standard parts; then a Newton-difference parabola through the
# solved sample points.
def _reference_fit(points):
    distinct = {}
    for x, y in points:
        distinct[x] = y
    if len(distinct) < 3:
        raise InvalidArgumentError("need at least 3 distinct sample abscissas")
    (x1, y1), (x2, y2), (x3, y3) = list(distinct.items())[:3]
    d12 = (y2 - y1) / (x2 - x1)
    A = ((y3 - y2) / (x3 - x2) - d12) / (x3 - x1)
    B = d12 - A * (x1 + x2)
    C = y1 - d12 * x1 + A * x1 * x2
    for x, y in distinct.items():
        if A * x * x + B * x + C != y:
            raise InconsistentRelationError("sample points do not lie on one parabola")
    return A, B, C


def _reference_shadow_y(H, x0, depth):
    probes = [(F(y), status_transitus_residual(H, x0, y, depth).st()) for y in range(3)]
    c2, c1, c0 = _reference_fit(probes)
    if c2 != 0:
        raise InconsistentRelationError("shadow relation is not linear in y")
    if c1 == 0:
        raise InconsistentRelationError("shadow relation does not determine y")
    return -c0 / c1


def _reference_conic_shadow(H, samples, depth):
    shadows._require_unlimited(H)
    points = tuple((F(x0), _reference_shadow_y(H, F(x0), depth)) for x0 in samples)
    return _reference_fit(points), points


def _coeffs_and_points(H, samples, depth=16):
    state = conic_shadow(H, samples, depth)
    return state.shadow_coeffs, state.points


def _outcome(call):
    """repr of the result (so an int is not taken for a Fraction), or the error."""
    try:
        return repr(call())
    except LCError as exc:
        return type(exc), str(exc)


@st.composite
def lattice_H(draw):
    """Two or three terms on a lattice 1/2..1/11, leading exponent mostly negative."""
    L = draw(st.integers(2, 11))
    lead = draw(st.integers(-2 * L, 1))
    steps = draw(st.lists(st.integers(1, 3 * L), min_size=1, max_size=2, unique=True))
    exps = [lead] + [lead + k for k in steps]
    return LCNumber([(F(e, L), draw(nonzero_rationals)) for e in exps])


_SAMPLE_POOL = [F(v) for v in range(-3, 4)] + [F(1, 2), F(-5, 3)]


class TestParityWithProbes:
    @given(lattice_H(), st.integers(1, 16), st.lists(st.sampled_from(_SAMPLE_POOL), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_same_coefficients_points_and_errors(self, H, depth, samples):
        got = _outcome(lambda: _coeffs_and_points(H, samples, depth))
        assert got == _outcome(lambda: _reference_conic_shadow(H, samples, depth))

    def test_default_H_and_the_fixed_cases(self):
        for H in UNLIMITEDS + [LCNumber.from_rational(5)]:
            for samples in ([], [0, 0, 2], [0, 2, 4], [4, 0, 0, 2, 4], [-4, -2, 0, 2, 4]):
                got = _outcome(lambda: _coeffs_and_points(H, samples))
                assert got == _outcome(lambda: _reference_conic_shadow(H, samples, 16))


_LEAVES = st.one_of(st.sampled_from([Var("x"), Var("y"), Var("H")]), rationals.map(Lit))
_DIVISORS = st.one_of(
    nonzero_rationals.map(Lit), st.integers(1, 3).map(lambda k: Pow(Var("H"), F(k)))
)


@st.composite
def relation_trees(draw, depth=4):
    """Polynomials in x, y and H, divided only by nonzero literals and powers of H."""
    if depth == 0 or draw(st.integers(0, 3)) == 3:
        return draw(_LEAVES)
    sub = relation_trees(depth - 1)
    kind = draw(st.sampled_from([Add, Sub, Mul, Neg, Pow, Div]))
    if kind is Neg:
        return Neg(draw(sub))
    if kind is Pow:
        return Pow(draw(sub), F(draw(st.integers(0, 2))))
    return kind(draw(sub), draw(_DIVISORS if kind is Div else sub))


class TestRelation:
    @given(relation_trees())
    @settings(max_examples=200, deadline=None)
    def test_matches_sympy_expansion(self, tree):
        # At H = eps^(-1) every coefficient is exact and eps^(-k) reads as H^k.
        x, y, H = sp.symbols("x y H")
        relation = _relation(tree, default_unlimited(), 16)
        total = 0
        for (i, j), c in relation.items():
            assert c.terms and c.trunc is None
            for q, a in c.terms:
                assert q.denominator == 1
                total += sp.Rational(a.numerator, a.denominator) * x**i * y**j * H ** int(-q)
        assert sp.expand(expr_to_sympy(tree) - total) == 0

    @given(relation_trees(), rationals, rationals, st.one_of(st.just(EPS.inv()), lattice_H()),
           st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_eval_field_at_a_point(self, tree, x0, y0, H, depth):
        if not H.terms or H.terms[0][0] >= 0:
            H = H * EPS.inv()  # make it unlimited
        relation = _relation(tree, H, depth)
        at_point = sum((c * (x0**i * y0**j) for (i, j), c in relation.items()), ZERO)
        direct = eval_field(tree, {"x": x0, "y": y0, "H": H}, depth)
        assert not (at_point - direct).terms, (at_point, direct)

    def test_binding_and_zero(self):
        assert _relation(parse("x - x + 0*y"), default_unlimited(), 16) == {}
        with pytest.raises(LCError, match="^variable 'z' is not bound$"):
            _relation(parse("x + z"), default_unlimited(), 16)
        with pytest.raises(ZeroDivisionError):
            _relation(parse("x/(H - H)"), default_unlimited(), 16)


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

    @pytest.mark.parametrize(
        "call", [lambda H: conic_point(H, 1), lambda H: conic_shadow(H, (0, 2, 4))]
    )
    def test_termless_H_is_not_decidably_unlimited(self, call):
        with pytest.raises(NotUnlimitedError) as info:
            call(LCNumber([], -1))
        assert str(info.value) == "H = O(eps^(-1)) is not decidably unlimited"

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


# Reference: conic_point's quadratic as it was hand-expanded from the twice-squared
# equation, before the coefficients were read from CONIC_LHS.
def _reference_conic_point(H, x, depth):
    shadows._require_unlimited(H)
    x = LCNumber.from_rational(x)
    Hinv = H.inv(depth)
    four_terms = Hinv * 4 + Hinv * Hinv * 4
    a2 = -four_terms
    a1 = (LCNumber.from_rational(2) + Hinv * 2) * 2
    a0 = (LCNumber.from_rational(2) + Hinv * 2).pow_int(2) - x * x * (1 + four_terms)
    disc = a1 * a1 - a2 * a0 * 4
    root = disc.nth_root(2, depth)
    inv_2a2 = (a2 * 2).inv(depth)
    for y in [(-a1 + root) * inv_2a2, (-a1 - root) * inv_2a2]:
        try:
            if y.is_limited():
                return y
        except UndecidableError:
            continue
    raise UndecidableError(f"no decidably limited intersection found at depth {depth}")


@st.composite
def two_term_H(draw):
    """H = c*eps^(-k/q) + b, the shape of the mixed-exponents workload's conics."""
    q = draw(st.sampled_from([2, 3, 5, 7, 11]))
    k = draw(st.integers(1, 2 * q))
    return LCNumber([(F(-k, q), draw(nonzero_rationals)), (0, draw(rationals))])


_THREE_TERM_H = parse_number("3*eps^(-9/11) - 3 - eps^(4/7)")
# The abscissas of the mixed-exponents workload.
_X_POOL = [F(v) for v in range(-3, 5)] + [F(1, 2), F(-3, 2), F(5, 2)]


class TestConicPointParity:
    @given(st.one_of(two_term_H(), st.just(_THREE_TERM_H)), st.sampled_from(_X_POOL),
           st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_same_point_or_error_as_the_hand_expanded_quadratic(self, H, x, depth):
        got = _outcome(lambda: str(conic_point(H, x, depth)))
        assert got == _outcome(lambda: str(_reference_conic_point(H, x, depth)))

    def test_fixed_cases(self):
        for H in UNLIMITEDS + [_THREE_TERM_H]:
            for depth in (1, 2, 4, 16):
                for x in _X_POOL:
                    got = _outcome(lambda: str(conic_point(H, x, depth)))
                    assert got == _outcome(lambda: str(_reference_conic_point(H, x, depth)))

    def test_point_solves_a_patched_relation(self, monkeypatch):
        # Another conic through (0, -3/2): a change to CONIC_LHS alone moves the
        # points, and their shadow is the parabola 6*y + 9 - x^2 = 0.
        patched = parse("(y + 3 + 3/H)^2 - (x^2 + y^2)*(1 + 3/H)^2")
        monkeypatch.setattr(shadows, "CONIC_LHS", patched)
        for H in (default_unlimited(), _THREE_TERM_H * 2):
            for x in (0, 1, 3, F(-5, 2)):
                y = conic_point(H, x, 16)
                assert y.st() == (F(x) ** 2 - 9) / 6
                residual = eval_field(patched, {"x": x, "y": y, "H": H}, 16)
                assert not residual.terms and residual.trunc > 0, (H, x, residual)

    def test_depth_below_one_is_refused(self):
        with pytest.raises(InvalidArgumentError, match="^depth must be at least 1, got 0$"):
            conic_point(default_unlimited(), 1, depth=0)


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
