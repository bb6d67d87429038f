"""Parsing, rendering, evaluation coherence, and the transfer check."""

import hashlib
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    expr_to_sympy,
    random_polynomial_expr,
    rationals,
    sympy_poly_to_expr,
)
from lcfield.errors import ParseError, UnboundVariableError, ZeroDivisionLCError
from lcfield.expr import (
    Add,
    Div,
    Lit,
    Mul,
    Neg,
    Pow,
    Sqrt,
    Sub,
    Var,
    eval_field,
    eval_rational,
    free_vars,
    parse,
    random_field_value,
    render,
    transfer_check,
)
from lcfield.number import EPS, LCNumber


class TestParse:
    def test_power(self):
        assert parse("x^2") == Pow(Var("x"), F(2))

    def test_line_equation(self):
        assert parse("1 - x/H") == Sub(Lit(F(1)), Div(Var("x"), Var("H")))

    def test_two_radicals(self):
        tree = parse("sqrt(x^2+y^2)+sqrt(x^2+(y-H)^2)")
        assert isinstance(tree, Add)
        assert isinstance(tree.left, Sqrt)
        assert isinstance(tree.right, Sqrt)

    def test_precedence(self):
        assert parse("-x^2") == Neg(Pow(Var("x"), F(2)))
        assert parse("1 - 2*x") == Sub(Lit(F(1)), Mul(Lit(F(2)), Var("x")))
        assert parse("a - b - c") == Sub(Sub(Var("a"), Var("b")), Var("c"))

    def test_fractional_exponent_needs_parens(self):
        assert parse("x^(1/2)") == Pow(Var("x"), F(1, 2))
        assert parse("x^1/2") == Div(Pow(Var("x"), F(1)), Lit(F(2)))

    def test_decimal_literal_is_exact(self):
        assert parse("0.1") == Lit(F(1, 10))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + $")
        assert exc.value.pos == 4

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("log(x)")


# (input, message, pos): every ParseError raise site of the expression grammar.
EXPR_PARSE_ERRORS = [
    ("   ", "empty expression", 0),
    ("1 + $", "unexpected character '$'", 4),
    ("1 +", "unexpected end of input", 3),
    ("sqrt x", "expected '(', got 'x'", 5),
    ("x^y", "expected a number, got 'y'", 2),
    ("x^(1/2.5)", "denominator must be an integer", 5),
    ("x^(1/0)", "zero denominator", 5),
    ("x^(-3/0.0)", "zero denominator", 6),
    ("f(x)", "unknown function 'f'", 0),
    ("1 + *", "unexpected token '*'", 4),
    ("(1))", "trailing input ')'", 3),
    ("(" * 101 + "x" + ")" * 101, "expression nested too deeply", 100),
    ("(" * 1000 + "x" + ")" * 1000, "expression nested too deeply", 100),
    ("sqrt(" * 101 + "x" + ")" * 101, "expression nested too deeply", 500),
    ("x*(" + "sqrt((" * 50 + "x" + "))" * 50 + ")", "expression nested too deeply", 302),
]


def test_nesting_up_to_the_limit_parses():
    tree = parse("(" * 50 + "sqrt(" * 50 + "x" + ")" * 100)
    for _ in range(50):
        tree = tree.operand
    assert tree == Var("x")


@pytest.mark.parametrize("src, message, pos", EXPR_PARSE_ERRORS)
def test_parse_error_message_and_position(src, message, pos):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert str(exc.value) == f"{message} (at position {pos})"
    assert exc.value.pos == pos


@st.composite
def expr_trees(draw, depth=3):
    """Random syntax trees whose literals all have exact decimal forms."""
    literals = st.builds(
        lambda n, k: Lit(F(n, 10**k)),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=2),
    )
    if depth == 0:
        return draw(st.one_of(literals, st.builds(Var, st.sampled_from("xyz"))))
    left = draw(expr_trees(depth=depth - 1))
    right = draw(expr_trees(depth=depth - 1))
    node = draw(st.sampled_from(["add", "sub", "mul", "div", "neg", "pow", "sqrt", "leaf"]))
    if node == "add":
        return Add(left, right)
    if node == "sub":
        return Sub(left, right)
    if node == "mul":
        return Mul(left, right)
    if node == "div":
        return Div(left, right)
    if node == "neg":
        return Neg(left)
    if node == "pow":
        return Pow(left, draw(st.sampled_from([F(2), F(3), F(-1), F(1, 2), F(-3, 2)])))
    if node == "sqrt":
        return Sqrt(left)
    return draw(st.one_of(literals, st.builds(Var, st.sampled_from("xyz"))))


class TestRender:
    @given(expr_trees())
    @settings(max_examples=300)
    def test_round_trip(self, tree):
        assert parse(render(tree)) == tree

    def test_fully_parenthesized(self):
        assert render(parse("1 - x/H")) == "(1 - (x/H))"


class TestEvalField:
    def test_binomial(self):
        got = eval_field(parse("x^2"), {"x": LCNumber.from_rational(1) + EPS})
        assert str(got) == "1 + 2*eps + eps^(2)"

    def test_oblique_line(self):
        got = eval_field(
            parse("1 - x/H"),
            {"x": LCNumber.from_rational(3), "H": EPS.inv()},
        )
        assert str(got) == "1 - 3*eps"

    def test_product_increment(self):
        binding = {
            "x": LCNumber.from_rational(2),
            "y": LCNumber.from_rational(3),
            "dx": EPS,
            "dy": EPS,
        }
        got = eval_field(parse("(x+dx)*(y+dy) - x*y"), binding)
        assert str(got) == "5*eps + eps^(2)"

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            eval_field(parse("x + y"), {"x": EPS})


class TestEvalRational:
    def test_square(self):
        assert eval_rational(parse("x^2"), {"x": F(3)}) == 9

    def test_parabola_point(self):
        got = eval_rational(parse("(y+2)^2 - (x^2+y^2)"), {"x": F(2), "y": F(0)})
        assert got == 0

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionLCError):
            eval_rational(parse("x/y"), {"x": F(1), "y": F(0)})

    @given(expr_trees(), rationals, rationals, rationals)
    @settings(max_examples=300)
    def test_embedding_coherence(self, tree, x, y, z):
        # Standard bindings: field evaluation restricted to exponent 0
        # agrees with rational evaluation whenever the latter succeeds.
        binding = {"x": x, "y": y, "z": z}
        try:
            expected = eval_rational(tree, binding)
        except Exception:
            return
        got = eval_field(
            tree, {k: LCNumber.from_rational(v) for k, v in binding.items()}
        )
        assert got.st() == expected
        assert all(q == 0 for q, _ in got.terms)


class TestTransferCheck:
    def test_binomial_identity(self):
        report = transfer_check(parse("(a+b)^2"), parse("a^2 + 2*a*b + b^2"), trials=25)
        assert report.ok
        assert report.rational_trials == 25
        assert report.field_trials == 25
        # Holds in particular at an infinitesimal paired with an unlimited value.
        diff = eval_field(parse("(a+b)^2"), {"a": EPS, "b": EPS.inv()}) - eval_field(
            parse("a^2 + 2*a*b + b^2"), {"a": EPS, "b": EPS.inv()}
        )
        assert not diff.terms

    def test_negative_fractional_power_of_zero(self):
        with pytest.raises(ZeroDivisionLCError):
            eval_rational(parse("x^(-1/2)"), {"x": F(0)})
        report = transfer_check(parse("x^(-1/2)*x"), parse("x^(1/2)"))
        assert report.ok, report.first_counterexample
        assert report.rational_trials > 0 and report.field_trials > 0

    def test_non_identity_reports_counterexample(self):
        report = transfer_check(parse("a^2"), parse("a"), trials=10)
        assert not report.ok
        # A tree without roots draws as it always has: pinned from the one-draw-per-value form.
        assert (report.rational_trials, report.field_trials, len(report.failures)) == (10, 10, 18)
        first = report.first_counterexample
        assert (first.kind, first.binding, first.detail) == (
            "rational", {"a": "3/7"}, "difference -12/49")

    # The fractional-power identity shapes of the mixed-exponents benchmark, at a = 3.
    @pytest.mark.parametrize("lhs, rhs", [
        ("(3*x^(1/2) + y^(1/3))^2", "9*x + 6*x^(1/2)*y^(1/3) + y^(2/3)"),
        ("(x^(1/5) + 3)*(x^(1/5) - 3)", "x^(2/5) - 9"),
        ("(x + y^(1/7))^2/(x + y^(1/7))", "x + y^(1/7)"),
        ("x^(1/11)*x^(10/11) + 3*y", "x + 3*y"),
        ("(x^(1/2))^2*y - x*y + 3", "3"),
        ("(x^(1/3))^3 + (y^(1/2))^2", "x + y"),
    ])
    @pytest.mark.parametrize("seed", [0, 4243])
    def test_roots_on_variables_decide_every_trial(self, lhs, rhs, seed):
        report = transfer_check(parse(lhs), parse(rhs), trials=20, seed=seed)
        assert report.ok, report.first_counterexample
        assert report.rational_trials == report.field_trials == 20

    # Roots of sums are not drawn for: the attempt cap stops the second one at 19 field trials.
    @pytest.mark.parametrize("lhs, rhs, field_trials", [
        ("sqrt(x+1)^2", "x+1", 20),
        ("sqrt(x+1/3)^2", "x+1/3", 19),
    ])
    def test_roots_on_sums_stop(self, lhs, rhs, field_trials):
        report = transfer_check(parse(lhs), parse(rhs))
        assert report.ok, report.first_counterexample
        assert (report.rational_trials, report.field_trials) == (20, field_trials)

    def test_root_order_over_the_cap_draws_as_without_roots(self):
        # x has root order 1001, over MAX_ROOT_ORDER; pinned from the draws without root orders.
        start = time.perf_counter()
        lhs, rhs = parse("x^(1/7)*x^(1/11)*x^(1/13)"), parse("x^(1/13)*x^(1/11)*x^(1/7)*y")
        report = transfer_check(lhs, rhs)
        assert time.perf_counter() - start < 1
        assert (report.ok, report.rational_trials, report.field_trials) == (False, 20, 20)
        assert len(report.failures) == 28
        first, last = report.failures[0], report.failures[-1]
        assert (first.kind, first.binding, first.detail) == (
            "rational", {"x": "1", "y": "9/4"}, "difference -5/4")
        assert (last.kind, last.binding, last.detail) == (
            "field", {"x": "-eps^(-3)", "y": "-7/9"}, "difference -16/9*eps^(-933/1001)")

    def test_report_keeps_only_what_the_probes_decide(self):
        assert repr(transfer_check(parse("x"), parse("x"), trials=1)) == (
            "TransferReport(rational_trials=1, field_trials=1, failures=[])")
        report = transfer_check(parse("x"), parse("x + 1"), trials=1)
        assert not report.ok and report.failures[0] is report.first_counterexample
        assert repr(report) == (
            "TransferReport(rational_trials=1, field_trials=1, failures=["
            "TransferFailure(kind='rational', binding={'x': '3/7'}, detail='difference -1'), "
            "TransferFailure(kind='field', binding={'x': '-1/9'}, detail='difference -1')])")

    def test_undecidable_evaluation_is_a_failure(self):
        # A multi-term x leaves x*(1/x) - 1 zero up to O(eps^16); pinned before one-walk draws.
        report = transfer_check(parse("1/(x*(1/x) - 1)"), parse("0"))
        assert (report.ok, report.rational_trials, report.field_trials) == (False, 0, 20)
        assert len(report.failures) == 20
        first = report.first_counterexample
        assert (first.kind, first.binding, first.detail) == (
            "undecidable", {"x": "-7/3*eps^(-2) - 8/7 - 2*eps^(3)"},
            "operand is zero up to O(eps^(16)); inverse undecidable")

    def test_expansion_oracle_identities(self):
        rng = random.Random(7)
        for _ in range(10):
            lhs = random_polynomial_expr(rng, ["a", "b"])
            names = sorted(free_vars(lhs)) or ["a"]
            rhs = sympy_poly_to_expr(expr_to_sympy(lhs), names)
            report = transfer_check(lhs, rhs, trials=10, seed=rng.randrange(10**6))
            assert report.ok, report.first_counterexample


# random_field_value draws, seeds 0..23, pinned from its draw-three-numbers form.
FIELD_VALUES = [
    "4 - 1/9*eps^(2)", "-1/2*eps^(2)", "-7/2", "-5/6*eps^(3)", "3/8*eps",
    "-2*eps^(-1) - 1/6 + 7*eps^(2)", "-5/8*eps^(-3) - 7/8 - eps", "-eps^(-3)", "-5/4*eps^(3)",
    "2/5 - 5/3*eps^(3)", "5/8*eps^(-2) - 8/7 + 6*eps", "1 + 5/9*eps^(3)", "-1/9 + 2/3*eps^(2)",
    "-4/3*eps^(-1)", "7/4", "-8/3*eps", "4/5*eps^(-1)", "8/5*eps^(-1) + 4/5 + 2/5*eps",
    "1/4*eps", "7/2", "1/3*eps", "-3/8*eps^(3)", "5/3*eps^(3)", "1/3*eps^(-2)",
]
FIELD_VALUES_SHA256 = "3b1798c6575a430bb2f894adb84080072092778d413483832cf3ff58b52ae25f"
GETRANDBITS_AFTER_50 = 12103918426339411695


def test_random_field_values_are_pinned():
    assert [str(random_field_value(random.Random(s))) for s in range(24)] == FIELD_VALUES
    drawn = "\n".join(str(random_field_value(random.Random(s))) for s in range(2000))
    assert hashlib.sha256(drawn.encode()).hexdigest() == FIELD_VALUES_SHA256


def test_random_field_value_leaves_the_generator_where_it_was_left():
    rng = random.Random(5)
    for _ in range(50):
        random_field_value(rng)
    assert rng.getrandbits(64) == GETRANDBITS_AFTER_50


@pytest.mark.parametrize("power", [2, 6])
def test_a_powered_field_value_has_that_root(power):
    # The same draws with every coefficient raised: the generator moves as for power 1.
    rng = random.Random(5)
    for _ in range(50):
        random_field_value(rng, power).nth_root(power)  # a coefficient with no root raises
    assert rng.getrandbits(64) == GETRANDBITS_AFTER_50
