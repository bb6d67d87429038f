"""The decidable sequence ring and its embedding into the field."""

import random
import sys
from fractions import Fraction as F

import pytest

from lcfield.errors import (
    CoercionError,
    InvalidArgumentError,
    LCError,
    ParseError,
    UnlimitedError,
    UnsupportedKindError,
    ZeroDivisionLCError,
)
from lcfield.number import EPS, LCNumber
from lcfield.sequences import (
    DecimalTruncation,
    Decomposition,
    RationalFunctionOfN,
    asymptotic_embed,
    decompose,
    eventually_dominates,
    eventually_zero,
    is_null,
    parse_sequence,
    seq_add,
    seq_mul,
)


def seq(src):
    return parse_sequence(src)


def poly(coeffs):
    """The polynomial in n with ascending coefficients, as an LCNumber in eps = 1/n."""
    return LCNumber([(-i, c) for i, c in enumerate(coeffs)])


def random_ratfunc_seq(rng):
    p = poly([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))])
    while True:
        q = poly([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))])
        if not q.is_zero:
            return RationalFunctionOfN.make(p, q)


class TestParsing:
    def test_reciprocal(self):
        s = seq("1/n")
        assert [s.term(n) for n in (1, 2, 4)] == [1, F(1, 2), F(1, 4)]

    def test_ratio(self):
        s = seq("n/(n+1)")
        assert s.term(3) == F(3, 4)

    def test_negative_power(self):
        assert seq("n^(-2)").term(10) == F(1, 100)

    def test_constant_stream(self):
        s = seq("const:pi")
        assert s.term(1) == F(31, 10)
        assert s.term(3) == F(3141, 1000)

    def test_constant_stream_with_digit_budget(self):
        s = seq("const:sqrt2:4")
        assert s.term(4) == F(14142, 10000)
        with pytest.raises(IndexError):
            s.term(5)

    def test_unknown_tag(self):
        with pytest.raises(ParseError):
            seq("const:phi")

    def test_wrong_variable(self):
        with pytest.raises(ParseError):
            seq("1/x")

    def test_sqrt_rejected(self):
        with pytest.raises(ParseError):
            seq("sqrt(n)")

    @pytest.mark.parametrize(
        "src, message, pos",
        [
            ("1 + m", "sequences use the index variable 'n', not 'm'", 4),
            ("  1 + m", "sequences use the index variable 'n', not 'm'", 6),
            ("(n + 1)/(N*n)", "sequences use the index variable 'n', not 'N'", 9),
            ("1/sqrt(n)", "sqrt is not available in sequence literals", 2),
            ("n^(1/2)", "sequence powers must be integers", 2),
            ("n^2 + n^1.5", "sequence powers must be integers", 8),
            ("1/(n-n) + m", "sequences use the index variable 'n', not 'm'", 10),
            ("m(n)", "unknown function 'm'", 0),
            ("n +", "unexpected end of input", 3),
            ("", "empty expression", 0),
            ("const:phi", "unknown constant tag 'phi'", 6),
            ("const:pi:x", "expected a digit count, got 'x'", 9),
            ("const:pi:", "expected a digit count, got ''", 9),
            ("const:pi:\u0661\u0660", "expected a digit count, got '\u0661\u0660'", 9),
        ],
    )
    def test_parse_error_message_and_position(self, src, message, pos):
        with pytest.raises(ParseError) as info:
            seq(src)
        assert str(info.value) == f"{message} (at position {pos})"
        assert info.value.pos == pos

    @pytest.mark.parametrize(
        "src, message",
        [
            ("(n-n)^(-1)", "negative power of the zero sequence"),
            ("0^(-2)", "negative power of the zero sequence"),
            ("1/(n-n)", "division by the zero sequence"),
        ],
    )
    def test_zero_sequence_errors(self, src, message):
        with pytest.raises(ZeroDivisionLCError) as info:
            seq(src)
        assert str(info.value) == message

    def test_zero_denominator_polynomial(self):
        with pytest.raises(ZeroDivisionLCError, match="zero denominator polynomial"):
            RationalFunctionOfN.make(poly([1]), poly([]))

    @pytest.mark.parametrize(
        "p, q",
        [
            (LCNumber.monomial(1, F(-1, 2)), poly([1])),
            (poly([1]), EPS),
            (poly([1]), poly([1, 1]) + LCNumber([], trunc=-3)),
        ],
    )
    def test_make_needs_exact_polynomials_in_n(self, p, q):
        with pytest.raises(UnsupportedKindError, match="^p and q must be exact polynomials in n$"):
            RationalFunctionOfN.make(p, q)

    @pytest.mark.parametrize("src, pos", [("const:pi:0", 9), ("const:pi:999", 9), ("const:e:51", 8)])
    def test_digit_count_out_of_range(self, src, pos):
        with pytest.raises(ParseError) as info:
            seq(src)
        assert str(info.value) == f"known_digits must be in 1..50 (at position {pos})"
        assert info.value.pos == pos

    def test_digit_count_takes_ascii_digits_only(self):
        with pytest.raises(ParseError):
            seq("const:pi:\u0661\u0660")

    def test_decimal_truncation_names_an_unknown_tag(self):
        with pytest.raises(InvalidArgumentError, match="^unknown constant tag 'phi'$"):
            DecimalTruncation("phi", 5)

    def test_decimal_truncation_keeps_value_error(self):
        with pytest.raises(ValueError) as info:
            DecimalTruncation("pi", 0)
        assert isinstance(info.value, InvalidArgumentError) and isinstance(info.value, LCError)

    def test_digit_count_is_an_int_not_a_bool(self):
        with pytest.raises(CoercionError, match="^expected int, got bool$"):
            DecimalTruncation("pi", True)

    def test_digits_past_the_int_limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ParseError) as count:
                seq("const:pi:" + "9" * 4400)
            with pytest.raises(ParseError) as literal:
                seq("1/" + "7" * 4301)
        finally:
            sys.set_int_max_str_digits(before)
        assert count.value.pos == 9 and str(count.value).startswith("Exceeds the limit (4300 ")
        assert str(literal.value) == "number has more than 4300 digits (at position 2)"


class TestRingOps:
    def test_add_termwise(self):
        s = seq_add(seq("1/n"), seq("n/(n+1)"))
        for n in (2, 3, 10):
            assert s.term(n) == F(1, n) + F(n, n + 1)

    def test_mul_termwise(self):
        s = seq_mul(seq("1/n"), seq("n/(n+1)"))
        for n in (2, 3, 10):
            assert s.term(n) == F(1, n + 1)

    def test_constant_shift_of_stream(self):
        s = seq_add(seq("const:pi"), seq("2"))
        assert s.term(2) == F(314, 100) + 2

    def test_nonconstant_shift_of_stream_rejected(self):
        with pytest.raises(UnsupportedKindError):
            seq_add(seq("const:pi"), seq("1/n"))

    def test_stream_product_rejected(self):
        with pytest.raises(UnsupportedKindError):
            seq_mul(seq("const:pi"), seq("2"))


class TestPredicates:
    def test_null(self):
        assert is_null(seq("1/n"))
        assert is_null(seq("(n+3)/n^2"))
        assert not is_null(seq("n/(n+1)"))
        assert not is_null(seq("const:pi"))

    def test_eventually_zero(self):
        assert eventually_zero(seq("0"))
        assert eventually_zero(seq("n - n"))
        assert not eventually_zero(seq("1/n"))

    def test_dominance(self):
        assert eventually_dominates(seq("1/n"), seq("1/n^2"))
        assert eventually_dominates(seq("n"), seq("1000000"))
        assert not eventually_dominates(seq("1/n"), seq("1/n"))
        assert not eventually_dominates(seq("1/n^2"), seq("1/n"))

    def test_dominance_needs_rational_functions(self):
        with pytest.raises(UnsupportedKindError):
            eventually_dominates(seq("const:pi"), seq("3"))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: seq_add(seq("const:pi"), seq("const:e")),
             "unsupported sequence kinds for addition"),
            (lambda: is_null(3), "unsupported kind int"),
            (lambda: decompose(3), "unsupported kind int"),
            (lambda: eventually_zero(DecimalTruncation("pi", 5)),
             "eventual-zero test needs a rational function of n"),
        ],
    )
    def test_unsupported_kinds(self, call, message):
        with pytest.raises(UnsupportedKindError) as info:
            call()
        assert str(info.value) == message


class TestDecompose:
    def test_ratio(self):
        assert decompose(seq("n/(n+1)")) == Decomposition(F(1), -1)

    def test_from_above(self):
        assert decompose(seq("(n+1)/n")) == Decomposition(F(1), 1)

    def test_null_sequence(self):
        assert decompose(seq("1/n")) == Decomposition(F(0), 1)

    def test_exact_constant(self):
        assert decompose(seq("3/2")) == Decomposition(F(3, 2), 0)

    def test_repr(self):
        assert repr(Decomposition(F(1, 2), -1)) == (
            "Decomposition(standard_part=Fraction(1, 2), residue_sign=-1)")
        assert repr(Decomposition("pi", -1)) == "Decomposition(standard_part='pi', residue_sign=-1)"

    def test_constant_stream_approaches_from_below(self):
        got = decompose(seq("const:pi"))
        assert got.standard_part == "pi"
        assert got.residue_sign == -1

    def test_shifted_stream_keeps_its_label(self):
        got = decompose(seq_add(seq("const:e"), seq("-2")))
        assert got.standard_part == "e - 2"

    def test_unbounded_raises(self):
        with pytest.raises(UnlimitedError):
            decompose(seq("n^2/(n+1)"))


class TestEmbed:
    def test_reciprocal_is_eps(self):
        assert asymptotic_embed(seq("1/n")) == EPS

    def test_ratio_series(self):
        got = asymptotic_embed(seq("n/(n+1)"), depth=3)
        assert got == LCNumber.parse("1 - eps + eps^(2) + O(eps^(3))")

    def test_eventually_zero_embeds_to_zero(self):
        assert not asymptotic_embed(seq("n - n")).terms

    def test_stream_not_embeddable(self):
        with pytest.raises(UnsupportedKindError):
            asymptotic_embed(seq("const:pi"))

    def test_null_iff_infinitesimal(self):
        rng = random.Random(17)
        for _ in range(200):
            s = random_ratfunc_seq(rng)
            assert is_null(s) == asymptotic_embed(s).is_infinitesimal()

    def test_ring_homomorphism_up_to_truncation(self):
        rng = random.Random(19)
        for _ in range(200):
            a, b = random_ratfunc_seq(rng), random_ratfunc_seq(rng)
            for op, field_op in ((seq_add, LCNumber.__add__), (seq_mul, LCNumber.__mul__)):
                lhs = asymptotic_embed(op(a, b))
                rhs = field_op(asymptotic_embed(a), asymptotic_embed(b))
                diff = lhs - rhs
                # Agreement on every exponent both sides still know about.
                assert not diff.terms, (a, b, op.__name__, diff)

    def test_dominance_matches_field_order(self):
        rng = random.Random(23)
        checked = 0
        while checked < 100:
            a, b = random_ratfunc_seq(rng), random_ratfunc_seq(rng)
            if not eventually_dominates(a, b):
                continue
            ea, eb = asymptotic_embed(a), asymptotic_embed(b)
            assert ea > eb
            checked += 1


class TestTermDomain:
    def test_constant_shift_of_stream_either_order(self):
        s = seq_add(seq("2"), seq("const:pi"))
        assert str(s) == "const:pi + 2:20"
        assert s.term(2) == F(314, 100) + 2

    def test_undefined_exactly_below_one_and_at_roots_of_q(self):
        s = seq("1/((n-1)*(n-3))")
        for n in (-1, 0, 1, 3):
            with pytest.raises(IndexError):
                s.term(n)
        assert [s.term(n) for n in (2, 4, 5)] == [F(-1), F(1, 3), F(1, 8)]

    def test_term_reads_the_stored_form(self, monkeypatch):
        s, t = seq("(n^3+2*n+1)/(n^2+5)"), seq("n^(-2) - 3/(2*n)")

        def no_view(self):
            raise AssertionError("term built a Fraction view")

        monkeypatch.setattr(LCNumber, "terms", property(no_view))
        assert s.term(7) == F(179, 27) and s.term(1) == F(2, 3)
        assert [t.term(n) for n in (1, 2, 3)] == [F(-1, 2), F(-1, 2), F(-7, 18)]
