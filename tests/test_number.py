"""Field arithmetic, ordering, truncation, and the reduction operators."""

import sys
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    exact_numbers, exponents, infinitesimals, limited_numbers, nonzero_numbers, nonzero_rationals,
    outcome, rationals,
)
from lcfield import calculus, expr, number, sequences, shadows
from lcfield.errors import (
    CoercionError,
    InvalidArgumentError,
    LCError,
    NegativeRootError,
    NotAnNthPowerError,
    ParseError,
    RootIndexError,
    UndecidableError,
    UnlimitedError,
    ZeroDivisionLCError,
    ZeroInputError,
)
from lcfield.expr import eval_field
from lcfield.expr import parse as parse_expr
from lcfield.number import (
    EPS, ONE, ZERO, Comparison, LCNumber, OrderClass, parse, poly_text, render
)


def num(s):
    return parse(s)


class TestAdd:
    def test_identity(self):
        assert EPS + ZERO == EPS

    def test_disjoint_supports(self):
        assert LCNumber.from_rational(3) + EPS == num("3 + eps")

    def test_truncation_is_min(self):
        a = LCNumber([(0, 1), (1, -1)], trunc=2)
        assert a + EPS == num("1 + O(eps^(2))")

    @given(exact_numbers, exact_numbers)
    def test_commutative(self, a, b):
        assert a + b == b + a

    @given(exact_numbers, exact_numbers, exact_numbers)
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(exact_numbers)
    def test_additive_inverse(self, a):
        assert a + (-a) == ZERO

    @pytest.mark.parametrize("op", [lambda a: a + 1.5, lambda a: a * "a", lambda a: 1.5 - a])
    def test_non_rational_operand_is_typed(self, op):
        with pytest.raises(CoercionError, match=r"^expected int or Fraction, got (float|str)$") as info:
            op(LCNumber.from_rational(4))
        assert isinstance(info.value, LCError) and isinstance(info.value, TypeError)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LCNumber([(0, 0.5)]), "expected int or Fraction, got float"),
        (lambda: LCNumber([(0.5, 1)]), "expected int or Fraction, got float"),
        (lambda: LCNumber([], trunc=0.5), "expected int or Fraction, got float"),
        (lambda: LCNumber.from_rational(0.1), "expected int or Fraction, got float"),
        (lambda: LCNumber.monomial(1, 0.5), "expected int or Fraction, got float"),
        (lambda: LCNumber.monomial("1", 1), "expected int or Fraction, got str"),
        (lambda: EPS.pow_rational(0.5), "expected int or Fraction, got float"),
        (lambda: EPS.pow_int(F(2)), "expected int, got Fraction"),
        (lambda: EPS.nth_root(2.0), "expected int, got float"),
        # A bool is an int to Python, but never a number here.
        (lambda: EPS.pow_int(True), "expected int, got bool"),
        (lambda: EPS.nth_root(True), "expected int, got bool"),
        (lambda: LCNumber.from_rational(True), "expected int or Fraction, got bool"),
        (lambda: LCNumber([(0, False)]), "expected int or Fraction, got bool"),
        (lambda: EPS.pow_rational(True), "expected int or Fraction, got bool"),
        (lambda: EPS + True, "expected int or Fraction, got bool"),
    ],
)
def test_kernel_takes_only_exact_rationals(call, message):
    with pytest.raises(CoercionError) as info:
        call()
    assert str(info.value) == message
    assert isinstance(info.value, LCError) and isinstance(info.value, TypeError)


class TestMul:
    def test_increment_expansion(self):
        # (x+dx)(y+dy) - xy at x=2, y=3, dx=dy=eps.
        x, y = LCNumber.from_rational(2), LCNumber.from_rational(3)
        assert (x + EPS) * (y + EPS) - x * y == num("5*eps + eps^(2)")

    def test_eps_squared(self):
        assert EPS * EPS == num("eps^(2)")

    def test_multiply_back_inverse(self):
        inv = num("1 - eps + eps^(2) + O(eps^(3))")
        assert (ONE + EPS) * inv == num("1 + O(eps^(3))")

    def test_termless_factors_add_their_orders(self):
        assert num("O(eps^(-3))") * num("O(eps^(-4))") == num("O(eps^(-7))")

    def test_termless_product_keeps_comparison_undecidable(self):
        x = num("O(eps^(-3))") * num("O(eps^(-4))") + num("eps^(-5)")
        with pytest.raises(UndecidableError):
            x.compare(0)

    def test_exact_zero_annihilates_truncation(self):
        assert ZERO * num("O(eps^(2))") == ZERO
        assert num("O(eps^(2))") * ZERO == ZERO

    @given(exact_numbers, exact_numbers)
    def test_commutative(self, a, b):
        assert a * b == b * a

    @given(exact_numbers, exact_numbers, exact_numbers)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(exact_numbers, exact_numbers, exact_numbers)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c


class TestInv:
    def test_inv_eps_is_unlimited(self):
        H = EPS.inv()
        assert H == num("eps^(-1)")
        assert not H.is_limited()

    def test_inv_rational(self):
        assert LCNumber.from_rational(2).inv() == num("1/2")

    def test_inv_one_plus_eps(self):
        got = (ONE + EPS).inv(depth=3)
        assert got == num("1 - eps + eps^(2) + O(eps^(3))")
        assert ((ONE + EPS) * got) == num("1 + O(eps^(3))")

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionLCError):
            ZERO.inv()

    def test_inv_zero_up_to_truncation_undecidable(self):
        with pytest.raises(UndecidableError):
            LCNumber([], trunc=3).inv()

    @given(nonzero_numbers)
    @settings(max_examples=200)
    def test_mul_inverse_up_to_truncation(self, a):
        # a * inv(a) = 1 up to the declared truncation order.
        prod = a * a.inv()
        assert prod.coefficient(0) == 1
        assert all(c == 0 for q, c in prod.terms if q != 0)


class TestCompare:
    def test_eps_below_every_positive_rational(self):
        assert EPS.compare(F(1, 1000000)) is Comparison.LT

    def test_equal_rationals(self):
        assert LCNumber.from_rational(3).compare(3) is Comparison.EQ

    def test_eps_above_eps_squared(self):
        assert EPS.compare(EPS * EPS) is Comparison.GT

    def test_tie_up_to_truncation_is_undecidable(self):
        a = LCNumber([(0, 1)], trunc=2)
        with pytest.raises(UndecidableError):
            a.compare(ONE)

    @given(exact_numbers, exact_numbers, exact_numbers)
    def test_order_respects_addition(self, a, b, c):
        if a.compare(b) is Comparison.LT:
            assert (a + c).compare(b + c) is Comparison.LT

    @given(nonzero_numbers, nonzero_numbers)
    def test_product_of_positives_is_positive(self, a, b):
        if a > ZERO and b > ZERO:
            assert a * b > ZERO

    @given(exact_numbers, exact_numbers, infinitesimals)
    def test_comparison_invariant_under_common_infinitesimal_shift(self, a, b, d):
        # When the standard parts differ, a common infinitesimal shift
        # cannot flip the comparison.
        if not (a - b).terms or (a - b).leading_exponent > 0:
            return
        assert a.compare(b) is (a + d).compare(b + d)

    def test_non_archimedean(self):
        n = 1
        while n <= 10**6:
            assert EPS * n < ONE
            n *= 10


class TestSt:
    def test_drops_infinitesimal_part(self):
        assert (LCNumber.from_rational(2) + EPS).st() == 2

    def test_fixes_standard_numbers(self):
        assert LCNumber.from_rational(5).st() == 5

    def test_pure_infinitesimal(self):
        assert (EPS + EPS * EPS).st() == 0

    def test_unlimited_raises(self):
        with pytest.raises(UnlimitedError):
            EPS.inv().st()

    def test_truncation_at_zero_raises(self):
        with pytest.raises(UndecidableError):
            LCNumber([], trunc=0).st()

    @given(limited_numbers, limited_numbers)
    def test_additive_morphism(self, a, b):
        assert (a + b).st() == a.st() + b.st()

    @given(limited_numbers, limited_numbers)
    def test_multiplicative_morphism(self, a, b):
        assert (a * b).st() == a.st() * b.st()

    @given(nonzero_rationals, nonzero_rationals, infinitesimals, infinitesimals)
    @settings(max_examples=300)
    def test_quotient_rule(self, x, y, d1, d2):
        # st((x + small)/(y + small)) == x/y.
        lhs = (LCNumber.from_rational(x) + d1) * (LCNumber.from_rational(y) + d2).inv()
        assert lhs.st() == x / y


class TestTlh:
    def test_standard_dominates_infinitesimal(self):
        assert (LCNumber.from_rational(7) + EPS).tlh() == num("7")

    def test_first_order_dominates_second(self):
        assert (EPS + EPS * EPS).tlh() == EPS

    @given(nonzero_numbers)
    def test_idempotent(self, a):
        assert a.tlh().tlh() == a.tlh()

    @given(nonzero_numbers, nonzero_numbers)
    def test_multiplicative(self, a, b):
        assert (a * b).tlh() == a.tlh() * b.tlh()

    def test_zero_raises(self):
        with pytest.raises(ZeroInputError):
            ZERO.tlh()


class TestRoots:
    def test_sqrt_eps(self):
        r = EPS.nth_root(2)
        assert r == num("eps^(1/2)")
        assert r * r == EPS

    def test_sqrt_four(self):
        assert LCNumber.from_rational(4).nth_root(2) == num("2")

    def test_sqrt_four_plus_eps(self):
        got = (LCNumber.from_rational(4) + EPS).nth_root(2, depth=3)
        assert got == num("2 + 1/4*eps - 1/64*eps^(2) + O(eps^(3))")
        assert got * got == num("4 + eps + O(eps^(3))")

    def test_sqrt_beyond_float_range(self):
        assert LCNumber.from_rational(10**400).sqrt() == LCNumber.from_rational(10**200)

    def test_sqrt_of_large_perfect_square(self):
        r = 10**20 + 7
        assert LCNumber.from_rational(r**2).sqrt() == LCNumber.from_rational(r)
        assert LCNumber.from_rational(F(r**2, 9)).sqrt() == LCNumber.from_rational(F(r, 3))

    def test_large_cube_root(self):
        r = 10**20 + 7
        assert LCNumber.from_rational(-(r**3)).nth_root(3) == LCNumber.from_rational(-r)
        with pytest.raises(NotAnNthPowerError):
            LCNumber.from_rational(r**3 + 1).nth_root(3)

    def test_imperfect_square_raises(self):
        with pytest.raises(NotAnNthPowerError):
            LCNumber.from_rational(2).nth_root(2)

    def test_negative_even_root_raises(self):
        with pytest.raises(NegativeRootError):
            LCNumber.from_rational(-4).nth_root(2)

    @pytest.mark.parametrize("n", [0, -2])
    def test_nonpositive_root_index_is_typed(self, n):
        with pytest.raises(RootIndexError, match="^root index must be a positive integer$") as info:
            LCNumber.from_rational(4).nth_root(n)
        assert isinstance(info.value, LCError) and isinstance(info.value, ValueError)

    @pytest.mark.parametrize("src", ["0", "O(eps^(2))", "O(eps^(-1))", "2 - eps + O(eps^(3))",
                                     "eps^(-1/2)"])
    def test_power_zero_is_exactly_one(self, monkeypatch, src):
        x = num(src)
        assert x.pow_int(0) == 1
        monkeypatch.setattr(LCNumber, "_lead", lambda *args: pytest.fail("_lead was read"))
        for alpha in (0, F(0), F(0, 7)):
            got = x.pow_rational(alpha)
            assert got == 1 and got.trunc is None and str(got) == "1"

    @given(st.data())
    @settings(max_examples=300)
    def test_root_of_a_power_is_the_power_of_the_root(self, data):
        """The root of c**p, value or error, for p/q in lowest terms; c a q-th power or not."""
        q = data.draw(st.integers(1, 12))
        p = data.draw(st.integers(-15, 15).filter(lambda p: gcd(p, q) == 1))
        r = F(data.draw(st.integers(-9, 9).filter(bool)), data.draw(st.integers(1, 9)))
        c = r ** data.draw(st.sampled_from([1, 2, 3, q, 2 * q]))
        got = outcome(lambda: number.rational_nth_root(c, q, p))
        assert got == outcome(lambda: number.rational_nth_root(c**p, q))
        assert type(got) in (F, tuple)

    def test_root_is_taken_before_the_power(self, monkeypatch):
        c, radicands, root = F(7, 4) ** 210, [], number._int_nth_root

        def recording_root(x, n):
            radicands.append(x.bit_length())
            return root(x, n)

        monkeypatch.setattr(number, "_int_nth_root", recording_root)
        assert number.rational_nth_root(c, 210, 209) == F(7, 4) ** 209
        assert radicands and max(radicands) <= c.numerator.bit_length()

    @given(st.integers(2, 2**80), st.integers(0, 200))
    @settings(max_examples=200)
    def test_no_integer_root_below_the_bit_length(self, x, extra):
        # For x >= 2 and n >= x.bit_length(), 1 < x^(1/n) < 2: no Newton step is taken.
        assert number._int_nth_root(x, x.bit_length() + extra) is None

    def test_huge_root_index_is_refused_at_once(self):
        with pytest.raises(NotAnNthPowerError) as info:
            number.rational_nth_root(F(2), 10**18)
        assert str(info.value) == "2 has no rational 1000000000000000000-th root"

    @given(nonzero_numbers, nonzero_rationals)
    @settings(max_examples=200)
    def test_square_root_squares_back(self, a, c):
        squared = a * a * c * c
        root = squared.nth_root(2)
        diff = root * root - squared
        assert not diff.terms


class TestClassification:
    def test_eps_is_infinitesimal(self):
        assert EPS.is_infinitesimal()

    def test_inv_eps_is_not_limited(self):
        assert not EPS.inv().is_limited()

    @given(exact_numbers, infinitesimals)
    def test_infinitesimal_shift_is_infinitely_close(self, x, d):
        assert (x + d).is_close_to(x)

    def test_order_class_zero(self):
        assert ZERO.order_class() == OrderClass(F(0), 0)

    def test_order_class_of_negative_unlimited(self):
        assert (-EPS.inv()).order_class() == OrderClass(F(-1), -1)

    def test_order_class_is_a_frozen_value(self):
        a, b = OrderClass(F(1, 2), 1), OrderClass(leading_exponent=F(1, 2), sign=1)
        assert a == b and hash(a) == hash(b)
        assert OrderClass(F(0), 0) != 0
        with pytest.raises(AttributeError):
            a.sign = -1
        assert a in {b}

    @given(nonzero_numbers, nonzero_numbers)
    def test_distinct_order_classes_are_incomparable(self, a, b):
        # No integer multiple of the higher-order element passes the other.
        if a.order_class().leading_exponent <= b.order_class().leading_exponent:
            return
        if not (a > ZERO and b > ZERO):
            return
        for n in (1, 1000, 10**9):
            assert a * n < b


class TestCanonicalText:
    @given(exact_numbers)
    def test_round_trip(self, a):
        assert parse(render(a)) == a

    @given(exact_numbers)
    def test_round_trip_with_truncation(self, a):
        bounded = LCNumber(a.terms, trunc=a.leading_exponent + 5)
        assert parse(render(bounded)) == bounded

    def test_zero(self):
        assert render(ZERO) == "0"
        assert parse("0") == ZERO

    def test_examples(self):
        assert render(num("3+2*eps-eps^2")) == "3 + 2*eps - eps^(2)"
        assert render(num("-1/2 * eps^(-3/2)")) == "-1/2*eps^(-3/2)"


class TestHash:
    """Equal objects hash equal: an exact constant equals its Fraction."""

    def test_one_is_one(self):
        assert ONE == 1 and hash(ONE) == hash(1)
        assert {1, ONE} == {1} and len({1, ONE}) == 1 and 1 in {ONE}

    def test_zero_hashes_as_zero(self):
        assert hash(ZERO) == 0 == hash(F(0)) and ZERO in {0}

    @given(rationals)
    def test_exact_constants_hash_as_their_fraction(self, r):
        assert LCNumber.from_rational(r) == r
        assert hash(LCNumber.from_rational(r)) == hash(r)

    def test_other_equalities_stay(self):
        assert num("1 + O(eps)") != 1 and EPS != 1 and num("eps^(0) + eps") != 1
        assert LCNumber.from_rational(F(2, 3)) != F(3, 2)
        # The same integer data on two lattices: eps^(1/2) against eps, and two orders.
        assert EPS.nth_root(2) != EPS and num("2 + O(eps^(1/3))") != num("2 + O(eps)")

    def test_two_lattice_histories(self):
        # eps^(1/2) lives on (1/2)Z; its square is back on Z, stored as EPS is.
        square = EPS.nth_root(2).pow_int(2)
        assert square == EPS and hash(square) == hash(EPS)
        assert len({square, EPS}) == 1
        coarse = (num("1 + eps^(1/2)") - num("eps^(1/2)")) * EPS
        assert coarse == EPS and hash(coarse) == hash(EPS)

    @given(exact_numbers, exact_numbers)
    def test_equal_values_hash_equal(self, a, b):
        total = (a + b) - b
        assert total == a and hash(total) == hash(a)

    def test_equality_with_a_non_number_is_left_to_the_other_side(self):
        assert EPS.__eq__("x") is NotImplemented
        assert (EPS == "x") is False and (EPS != "x") is True


# (input, message, pos): every ParseError raise site of the number grammar.
NUMBER_PARSE_ERRORS = [
    ("   ", "empty number literal", 0),
    ("2 $", "unexpected character '$'", 2),
    ("2 /", "unexpected end of input", 3),
    ("O eps", "expected '(', got 'eps'", 2),
    ("eps^+", "expected a number, got '+'", 4),
    ("1/eps", "expected a denominator", 2),
    ("1/0", "zero denominator", 2),
    ("O(eps^(1/0))", "zero denominator", 9),
    ("2 +", "expected a term", 3),
    ("-O(eps)", "truncation marker cannot be negated", 0),
    ("3 - O(eps)", "truncation marker cannot be negated", 2),
    ("3 − O(eps)", "truncation marker cannot be negated", 2),
    ("O(eps) + 1", "truncation marker must come last", 7),
    ("2 3", "expected '+' or '-', got '3'", 2),
]


class TestParseErrors:
    @pytest.mark.parametrize("src, message, pos", NUMBER_PARSE_ERRORS)
    def test_message_and_position(self, src, message, pos):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert str(exc.value) == f"{message} (at position {pos})"
        assert exc.value.pos == pos


class TestDivisionAndWeakOrder:
    def test_division_by_a_number(self):
        assert (ONE + EPS) / EPS == num("eps^(-1) + 1")
        assert (ONE + EPS) / 2 == num("1/2 + 1/2*eps")

    def test_rational_divided_by_a_number(self):
        assert 2 / EPS == num("2*eps^(-1)")
        assert str(1 / (ONE + EPS)).endswith("+ eps^(14) - eps^(15) + O(eps^(16))")

    def test_weak_order(self):
        assert EPS <= EPS and ZERO <= EPS and EPS >= 0
        assert not EPS >= 1 and not EPS <= 0


class TestTermlessClassification:
    def test_positive_order_is_infinitesimal(self):
        assert LCNumber([], trunc=1).is_infinitesimal()

    @pytest.mark.parametrize("trunc", [0, -1])
    def test_nonpositive_order_is_undecidable(self, trunc):
        with pytest.raises(UndecidableError, match="classification undecidable"):
            LCNumber([], trunc=trunc).is_infinitesimal()

    @pytest.mark.parametrize("trunc", [1, 0, -1])
    def test_order_class_is_undecidable(self, trunc):
        with pytest.raises(UndecidableError, match="order class undecidable"):
            LCNumber([], trunc=trunc).order_class()


def test_package_exports_every_error_class():
    import inspect

    import lcfield
    import lcfield.errors as errors

    classes = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.LCError)
    }
    assert sorted(classes - set(lcfield.__all__)) == []
    for name in classes:
        assert getattr(lcfield, name) is getattr(errors, name)


def test_a_bool_still_compares_equal_as_its_int():
    assert ONE == True and ZERO == False and EPS != True  # noqa: E712


# Every road into the one power kernel, LCNumber.pow_rational, with a depth.
POWER_CALLS = {
    "inv": lambda x, depth: x.inv(depth),
    "nth_root": lambda x, depth: x.nth_root(2, depth),
    "negative pow_int": lambda x, depth: x.pow_int(-2, depth),
    "pow_rational": lambda x, depth: x.pow_rational(F(3, 2), depth),
    "Div": lambda x, depth: eval_field(parse_expr("1/x"), {"x": x}, depth),
    "Sqrt": lambda x, depth: eval_field(parse_expr("sqrt(x)"), {"x": x}, depth),
    "rational Pow": lambda x, depth: eval_field(parse_expr("x^(3/2)"), {"x": x}, depth),
}


class TestLibraryDepth:
    @pytest.mark.parametrize("name", POWER_CALLS)
    @pytest.mark.parametrize(
        "depth, message",
        [
            (0, "depth must be at least 1, got 0"),
            (-3, "depth must be at least 1, got -3"),
            (True, "depth must be an int, got bool"),
            (2.0, "depth must be an int, got float"),
            (F(4), "depth must be an int, got Fraction"),
        ],
    )
    def test_refused_before_any_work(self, monkeypatch, name, depth, message):
        def no_series(*args):
            raise AssertionError("the power series ran")

        monkeypatch.setattr(number, "_binomial_series", no_series)
        for x in (parse("4 + eps"), ZERO, parse("O(eps^(2))")):
            with pytest.raises(InvalidArgumentError) as info:
                POWER_CALLS[name](x, depth)
            assert str(info.value) == message
            assert isinstance(info.value, LCError) and isinstance(info.value, ValueError)

    def test_checked_before_the_exponent(self):
        with pytest.raises(InvalidArgumentError, match="^depth must be at least 1, got 0$"):
            EPS.pow_rational(0.5, 0)

    def test_depth_one_is_the_least(self):
        assert (ONE + EPS).inv(1) == parse("1 + O(eps)")


# References: render and poly_text as they were before they shared one signed-sum printer.
def _ref_render_term(exponent, coeff):
    mag = abs(coeff)
    if exponent == 0:
        return str(mag)
    if exponent == 1:
        eps = "eps"
    else:
        eps = f"eps^({exponent})"
    if mag == 1:
        return eps
    return f"{mag}*{eps}"


def ref_render(a):
    parts = []
    for i, (q, c) in enumerate(a.terms):
        body = _ref_render_term(q, c)
        if i == 0:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f" {'-' if c < 0 else '+'} {body}")
    if a.trunc is not None:
        tail = f"O(eps^({a.trunc}))"
        parts.append(f" + {tail}" if parts else tail)
    if not parts:
        return "0"
    return "".join(parts)


def ref_poly_text(pairs, variable):
    parts = []
    for power, c in pairs:
        if c == 0:
            continue
        name = variable if power == 1 else f"{variable}^{power}"
        body = str(abs(c)) if power == 0 else name if abs(c) == 1 else f"{abs(c)}*{name}"
        if parts:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


@st.composite
def printed_numbers(draw):
    """Exact or truncated, with terms or without; truncation orders of any sign."""
    terms = draw(st.lists(st.tuples(exponents, nonzero_rationals), max_size=5,
                          unique_by=lambda t: t[0]))
    return LCNumber(terms, draw(st.one_of(st.none(), exponents)))


_POLY_PAIRS = st.lists(
    st.tuples(st.integers(0, 5), st.one_of(st.integers(-3, 3), rationals)), max_size=5
)


class TestExactPowerCap:
    CAP = number.MAX_EXACT_POWER

    @pytest.mark.parametrize("src", ["10 + eps", "eps^(-1) - 1/2 + eps^(1/3)"])
    def test_refused_before_any_product(self, monkeypatch, src):
        x = parse(src)
        monkeypatch.setattr(LCNumber, "__mul__", lambda *args: pytest.fail("a product ran"))
        with pytest.raises(InvalidArgumentError) as info:
            x.pow_int(self.CAP + 1)
        limit = f"{self.CAP}, the limit for an exact sum"
        assert str(info.value) == f"exponent {self.CAP + 1} is above {limit}"
        assert isinstance(info.value, LCError) and isinstance(info.value, ValueError)

    def test_at_the_cap_the_power_is_expanded(self):
        assert len((ONE + EPS).pow_int(self.CAP).terms) == self.CAP + 1

    def test_monomials_and_truncated_operands_keep_their_path(self):
        k = self.CAP + 1
        assert parse("2*eps^(1/3)").pow_int(k) == LCNumber.monomial(2**k, F(k, 3))
        binomial = LCNumber([(0, 1), (1, k), (2, k * (k - 1) // 2)], 3)
        assert parse("1 + eps + O(eps^(3))").pow_int(k) == binomial


class TestPowerPastTheDigitLimit:
    """A power that sizes alone put past the digit limit is refused before it is computed."""

    MESSAGE = ("Exceeds the limit (4300 digits) for integer string conversion; "
               "use sys.set_int_max_str_digits() to increase the limit")

    @pytest.fixture(autouse=True)
    def default_limit(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)

    @pytest.mark.parametrize("call", [
        lambda: LCNumber.from_rational(2).pow_int(10**11),
        lambda: LCNumber([(0, 3), (1, 1)], 2).pow_int(20000),
        lambda: LCNumber([(F(-1, 2), F(1, 10**20))]).pow_int(1000),
        lambda: parse("4 + eps").pow_rational(F(10**8 + 1, 2)),
        lambda: parse("8*eps").pow_rational(F(10**8, 3)),
        lambda: parse("2").pow_rational(-20000),
        lambda: number.rational_nth_root(F(2), 1, 10**8),
        lambda: number.rational_nth_root(F(4, 9), 2, -(10**8)),
        lambda: expr.eval_rational(parse_expr("x^(100000001/2)"), {"x": F(4)}),
        lambda: eval_field(parse_expr("2^100000000000"), {}),
        # Refused although x^3/x^2 would cancel back to a printable x.
        lambda: expr.eval_rational(parse_expr("x^3/x^2"), {"x": 2 * 10**2200}),
    ])
    def test_refused_before_any_product(self, call, monkeypatch):
        monkeypatch.setattr(LCNumber, "__mul__", lambda *args: pytest.fail("a product ran"))
        monkeypatch.setattr(F, "__pow__", lambda *args: pytest.fail("a power ran"))
        with pytest.raises(InvalidArgumentError) as info:
            call()
        assert str(info.value) == self.MESSAGE

    @pytest.mark.parametrize("call", [
        # |p|*(b-1) = 4L - 1 for a leading 2.
        lambda: LCNumber.from_rational(2).pow_int(17199),
        # Stored as 256/16, past the bound; in lowest terms 16, below it.
        lambda: LCNumber([(0, 16), (1, F(1, 16))], 2).pow_int(3000),
        lambda: number.rational_nth_root(F(-8), 3, 5000),
    ])
    def test_below_the_bound_the_power_runs(self, call):
        assert call() is not None

    def test_no_limit_refuses_nothing(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        monkeypatch.setattr(F, "__pow__", lambda *args: "computed")
        assert number.rational_nth_root(F(2), 1, 10**8) == "computed"


class TestSignedSumPrinter:
    @given(printed_numbers())
    @example(ZERO)
    @example(LCNumber([], F(-3, 2)))
    @example(LCNumber([], 0))
    @example(parse("-eps^(-1) + 1 + O(eps^(0))"))
    @example(parse("-1 - eps"))
    @settings(max_examples=300)
    def test_render_is_byte_identical(self, a):
        assert render(a) == ref_render(a) == str(a)

    @given(_POLY_PAIRS, st.sampled_from(["n", "x0"]))
    @example([], "x0")
    @example([(2, 0), (1, 0), (0, 0)], "x0")
    @example([(2, F(-1)), (1, 0), (0, 1)], "x0")
    @example([(0, -3), (1, 1), (3, F(-1, 2))], "n")
    @settings(max_examples=300)
    def test_poly_text_is_byte_identical(self, pairs, variable):
        assert poly_text(pairs, variable) == ref_poly_text(pairs, variable)


@number.record
class _Held:
    value: object


class TestDigitLimit:
    """A literal that Python would refuse to convert is a ParseError at its token."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(before)

    @pytest.mark.parametrize(
        "call, pos",
        [
            (lambda: parse("1" * 4301), 0),
            (lambda: parse("2 + 1/" + "3" * 4301 + "*eps"), 6),
            (lambda: parse("O(eps^(" + "7" * 4301 + "))"), 7),
            (lambda: parse_expr("x + " + "9" * 4301), 4),
            (lambda: parse_expr("1." + "5" * 4301), 0),
        ],
    )
    def test_too_many_digits(self, call, pos):
        with pytest.raises(ParseError) as info:
            call()
        assert str(info.value) == f"number has more than 4300 digits (at position {pos})"

    def test_at_the_limit_and_in_names(self):
        assert parse("1" * 4300).st() == int("1" * 4300)
        # Each digit run of a decimal converts on its own.
        value = eval_field(parse_expr("1" * 4000 + "." + "5" * 4000), {})
        assert value.st() == int("1" * 4000) + F(int("5" * 4000), 10**4000)
        assert parse_expr("x" + "1" * 4400).name == "x" + "1" * 4400

    def test_no_limit(self):
        sys.set_int_max_str_digits(0)
        assert parse("1" * 4400).st() == int("1" * 4400)

    @pytest.mark.parametrize("call", [
        lambda: str(LCNumber.from_rational(10**4400)),
        lambda: str(EPS * F(1, 10**4400)),
        lambda: str(EPS.pow_int(10**4400)),
        # The message of NotAnNthPowerError names the radicand.
        lambda: (EPS + 10**6000 + 1).nth_root(2),
        lambda: number.rational_text(F(10**4400, 3)),
        lambda: repr(LCNumber.monomial(1, 10**4400).order_class()),
        lambda: expr.render(expr.Pow(expr.Var("x"), F(-1, 10**4400))),
        lambda: expr.render(expr.Lit(F(10**4400, 3))),
        lambda: expr.eval_rational(parse_expr("sqrt(x)"), {"x": 2 * 10**4400}),
        lambda: str(sequences.DecimalTruncation("pi", 5, F(10**4400))),
        lambda: poly_text([(10**4400, F(1))], "n"),
        lambda: LCNumber([], -(10**4400)).st(),
        lambda: expr.transfer_check(parse_expr("x^20000"), parse_expr("0"), trials=1),
        lambda: shadows._relation(expr.Pow(expr.Var("x"), F(1, 10**4400)), EPS.inv(), 16),
        lambda: repr(expr.Lit(F(10**4400))),
        lambda: repr(sequences.Decomposition(F(10**4400), 1)),
        # Every result record prints its fields through the typed printer.
        lambda: repr(calculus.derivative(parse_expr("x^3"), 10**2200)),
        lambda: repr(shadows.conic_shadow(shadows.default_unlimited(), [10**2200, 0, 1])),
        lambda: repr(sequences.DecimalTruncation("pi", 5, F(10**4400))),
    ])
    def test_text_past_the_limit_is_typed(self, call):
        with pytest.raises(InvalidArgumentError) as info:
            call()
        assert isinstance(info.value, ValueError)
        assert str(info.value).startswith("Exceeds the limit (4300 digits) for integer string")

    @pytest.mark.parametrize("value", [
        (F(1),), (), (1, F(-2, 3)), ((F(1), 2), (F(3, 4),)), ("pi", -1), F(-5, 2), 7, True,
    ])
    def test_data_repr_is_repr(self, value):
        # Below the limit, a record's field prints as repr prints it, through the typed door.
        assert repr(_Held(value)) == f"_Held(value={value!r})"

    def test_radicand_past_the_limit_is_named_by_its_power(self):
        # (9/2)^4999 has more than 4300 digits; the error keeps its class and names it as a power.
        with pytest.raises(NotAnNthPowerError) as info:
            expr.eval_rational(parse_expr("x^(4999/5000)"), {"x": F(9, 2)})
        assert str(info.value) == "(9/2)^(4999) has no rational 5000-th root"
        with pytest.raises(NegativeRootError) as info:
            number.rational_nth_root(F(-9, 2), 5000, 4999)
        assert str(info.value) == "even root of negative coefficient (-9/2)^(4999)"

    def test_huge_radicand_is_named_without_computing_it(self, monkeypatch):
        # 2^999999999 would take seconds and hundreds of MB only to be refused by str.
        power = F.__pow__

        def bounded(a, b, *modulo):
            if isinstance(b, int) and abs(b) > 10**6:
                raise AssertionError(f"computed a power {b}")
            return power(a, b, *modulo)

        monkeypatch.setattr(F, "__pow__", bounded)
        with pytest.raises(NotAnNthPowerError) as info:
            number.rational_nth_root(F(2), 10**9, 10**9 - 1)
        assert str(info.value) == "(2)^(999999999) has no rational 1000000000-th root"
        with pytest.raises(NegativeRootError) as info:
            number.rational_nth_root(F(-2), 10**9, 10**9 - 1)
        assert str(info.value) == "even root of negative coefficient (-2)^(999999999)"

    def test_transfer_check_redraws_past_a_large_radicand(self):
        e = parse_expr("x^(4999/5000)")
        report = expr.transfer_check(e, e)
        assert (report.ok, report.rational_trials, report.field_trials) == (True, 20, 20)


# References: the leading-term decisions as they were before `LCNumber._lead`, one body
# each.  `ref_pow_rational` keeps the old zero-operand check and hands an operand with
# terms to the kernel, whose series is checked against its own reference in test_kernel.py.
def ref_compare(a, b):
    d = a - b
    if d.terms:
        return Comparison.GT if d.terms[0][1] > 0 else Comparison.LT
    if d.trunc is None:
        return Comparison.EQ
    raise UndecidableError(f"difference is zero up to O(eps^({d.trunc})); comparison undecidable")


def ref_st(a):
    if a.terms and a.terms[0][0] < 0:
        raise UnlimitedError("standard part of an unlimited number")
    if a.trunc is not None and a.trunc <= 0:
        raise UndecidableError(f"truncation order {a.trunc} <= 0 hides the standard part")
    return a.coefficient(0)


def ref_tlh(a):
    if not a.terms:
        if a.trunc is None:
            raise ZeroInputError("no dominant term in zero")
        raise UndecidableError(f"zero up to O(eps^({a.trunc})); dominant term unknown")
    return LCNumber([a.terms[0]])


def ref_is_infinitesimal(a):
    if a.terms:
        return a.terms[0][0] > 0
    if a.trunc is None:
        return True
    if a.trunc > 0:
        return True
    raise UndecidableError(f"zero up to O(eps^({a.trunc})); classification undecidable")


def ref_is_limited(a):
    if a.terms and a.terms[0][0] < 0:
        return False
    if a.trunc is not None and a.trunc <= 0:
        raise UndecidableError(f"terms below eps^(0) may hide behind O(eps^({a.trunc}))")
    return True


def ref_order_class(a):
    if a.terms:
        q, c = a.terms[0]
        return OrderClass(q, 1 if c > 0 else -1)
    if a.trunc is None:
        return OrderClass(F(0), 0)
    raise UndecidableError(f"zero up to O(eps^({a.trunc})); order class undecidable")


def ref_pow_rational(a, alpha, depth):
    p = F(alpha).numerator
    if not a.terms:
        if a.trunc is None:
            if p < 0:
                raise ZeroDivisionLCError("inverse of zero")
            return LCNumber()
        what = "inverse" if p < 0 else "root"
        raise UndecidableError(
            f"operand is zero up to O(eps^({abs(p) * a.trunc})); {what} undecidable"
        )
    return a.pow_rational(alpha, depth)


_PERFECT_POWERS = [F(1), F(-1), F(4), F(-8), F(9, 4), F(1, 64), F(27), F(-3, 5)]


@st.composite
def led_numbers(draw):
    """Exact zero; term-less O(eps^(T)) with T below, at or above 0; or up to four
    terms on one lattice 1/2..1/11 from a leading exponent of either sign, with or
    without an O() tail."""
    lattice = draw(st.integers(2, 11))
    q = F(draw(st.integers(-12, 12)), lattice)
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        terms.append((q, draw(st.sampled_from(_PERFECT_POWERS))))
        q += F(draw(st.integers(1, 6)), lattice)
    trunc = q if terms else F(draw(st.integers(-12, 12)), lattice)
    return LCNumber(terms, draw(st.sampled_from([None, trunc])))


_EXPONENTS = [F(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3, 7) if F(p, q) != 1]


class TestLeadingTermParity:
    @given(led_numbers(), led_numbers(), st.sampled_from(_EXPONENTS), st.integers(2, 4),
           st.integers(-3, -1), st.integers(1, 8))
    @example(ZERO, ZERO, F(-3), 2, -3, 4)
    @example(LCNumber([], F(-1, 2)), LCNumber([], 0), F(3, 2), 3, -2, 1)
    @example(LCNumber([], F(2)), ZERO, F(-3), 2, -3, 16)
    @example(parse("-eps^(-3/7) + 4*eps^(1/7) + O(eps^(2))"), parse("1 + O(eps)"), F(-2, 3),
             3, -1, 2)
    @settings(max_examples=400, deadline=None)
    def test_same_answers_as_the_old_bodies(self, a, b, alpha, n, k, depth):
        calls = {
            "compare": (lambda: a.compare(b), lambda: ref_compare(a, b)),
            "compare int": (lambda: a.compare(2), lambda: ref_compare(a, 2)),
            "st": (a.st, lambda: ref_st(a)),
            "tlh": (a.tlh, lambda: ref_tlh(a)),
            "is_infinitesimal": (a.is_infinitesimal, lambda: ref_is_infinitesimal(a)),
            "is_limited": (a.is_limited, lambda: ref_is_limited(a)),
            "is_close_to": (lambda: a.is_close_to(b), lambda: ref_is_infinitesimal(a - b)),
            "order_class": (a.order_class, lambda: ref_order_class(a)),
            "inv": (lambda: a.inv(depth), lambda: ref_pow_rational(a, -1, depth)),
            "nth_root": (lambda: a.nth_root(n, depth),
                         lambda: ref_pow_rational(a, F(1, n), depth)),
            "pow_rational": (lambda: a.pow_rational(alpha, depth),
                             lambda: ref_pow_rational(a, alpha, depth)),
            "pow_int": (lambda: a.pow_int(k, depth), lambda: ref_pow_rational(a, k, depth)),
        }
        exponent = {"pow_rational": alpha, "pow_int": k}
        for name, (new, ref) in calls.items():
            got, want = outcome(new), outcome(ref)
            p = F(exponent.get(name, 1)).numerator
            if abs(p) > 1 and not a.terms and a.trunc is not None:
                # The one change: the message names the operand's own order, not |p| times it.
                what = "inverse" if p < 0 else "root"
                want = (UndecidableError,
                        f"operand is zero up to O(eps^({a.trunc})); {what} undecidable")
            assert type(got) is type(want) and got == want, (name, str(a), got, want)
            if isinstance(got, LCNumber):
                assert got.terms == want.terms and got.trunc == want.trunc, name
                assert all(type(v) is F for t in got.terms for v in t), name

    def test_every_leading_term_question_reads_lead(self, monkeypatch):
        reads = []
        lead = LCNumber._lead
        monkeypatch.setattr(
            LCNumber, "_lead", lambda x, *args: reads.append(args) or lead(x, *args)
        )
        x = parse("-2*eps^(-1/2) + 3 + O(eps)")
        questions = [
            lambda: x.compare(1), x.st, x.tlh, x.is_infinitesimal, x.is_limited, x.order_class,
            lambda: x.pow_rational(F(-2, 3)), lambda: x.leading_exponent,
            lambda: x.leading_coefficient,
        ]
        for question in questions:
            reads.clear()
            outcome(question)
            assert len(reads) == 1


class TestLeadingTerm:
    @pytest.mark.parametrize("name", ["exponent", "coefficient"])
    @pytest.mark.parametrize("trunc", [F(-3, 2), F(0), F(2)])
    def test_termless_value_is_undecidable(self, name, trunc):
        with pytest.raises(UndecidableError) as info:
            getattr(LCNumber([], trunc), f"leading_{name}")
        assert str(info.value) == f"zero up to O(eps^({trunc})); leading {name} undecidable"

    def test_exact_zero_keeps_zero(self):
        assert ZERO.leading_exponent == 0 and ZERO.leading_coefficient == 0
        assert type(ZERO.leading_exponent) is F and type(ZERO.leading_coefficient) is F
