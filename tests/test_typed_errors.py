"""The analysis layers raise LCError subclasses that keep their builtin bases.

Each site keeps its message and stays catchable as the builtin it raised
before, so `except ValueError` / `IndexError` / `ArithmeticError` / `TypeError`
in callers still hold, and one `except LCError` catches them all.
"""

from fractions import Fraction

import pytest

import lcfield
from lcfield import calculus, cli, expr, number, sequences, shadows, svg
from lcfield.errors import (
    CoercionError,
    InconsistentRelationError,
    InvalidArgumentError,
    LCError,
    NotInfinitesimalError,
    NotUnlimitedError,
    UndefinedTermError,
)
from lcfield.number import EPS, LCNumber


_H = shadows.default_unlimited
_X, _T2 = expr.parse("x"), expr.parse("t^2")


# (patch or None, call, typed class, builtin base, message prefix)
CASES = [
    (None, lambda: calculus.derivative(expr.parse("x*y"), 1), InvalidArgumentError, ValueError,
     "expected a univariate expression, got variables ['x', 'y']"),
    (None, lambda: calculus.second_differential_check(expr.parse("x"), 0, expr.parse("t"), 0),
     InvalidArgumentError, ValueError, "parameter a must be nonzero"),
    (None, lambda: shadows.conic_shadow(_H(), [0, 0, 2]), InvalidArgumentError, ValueError,
     "need at least 3 distinct sample abscissas"),
    (("CONIC_LHS", expr.parse("x^2 - y^2")), lambda: shadows.conic_shadow(_H(), [0, 2, 4]),
     InconsistentRelationError, ArithmeticError, "shadow relation is not linear in y"),
    (("CONIC_LHS", expr.parse("x^2 - 4")), lambda: shadows.conic_shadow(_H(), [0, 2, 4]),
     InconsistentRelationError, ArithmeticError, "shadow relation does not determine y"),
    (("CONIC_LHS", expr.parse("y - x^3")), lambda: shadows.conic_shadow(_H(), [0, 2, 4]),
     InconsistentRelationError, ArithmeticError, "shadow relation is not a parabola: [(3, 0)]"),
    (("CONIC_LHS", expr.parse("y^3 + y^2/H - x^2")), lambda: shadows.conic_point(_H(), 1),
     InconsistentRelationError, ArithmeticError, "conic relation is not quadratic in y"),
    (("CONIC_LHS", expr.parse("4*y + 4 - x^2")), lambda: shadows.conic_point(_H(), 1),
     InconsistentRelationError, ArithmeticError, "conic relation is not quadratic in y"),
    (None, lambda: shadows._relation(expr.parse("1/(x + 1)"), _H(), 16),
     InconsistentRelationError, ArithmeticError, "relation divides by a non-constant"),
    (None, lambda: shadows._relation(expr.parse("x^(1/2)"), _H(), 16),
     InconsistentRelationError, ArithmeticError, "relation has the power 1/2, not a natural number"),
    (None, lambda: shadows._relation(expr.parse("sqrt(y)"), _H(), 16),
     InconsistentRelationError, ArithmeticError, "relation has the power 1/2, not a natural number"),
    (None, lambda: shadows._relation(expr.parse("y^-1"), _H(), 16),
     InconsistentRelationError, ArithmeticError, "relation has the power -1, not a natural number"),
    (("CONIC_LHS_SRC", "x^2 - y"), shadows.rederive_conic_chain, InconsistentRelationError,
     ArithmeticError, "squaring chain disagrees with recorded form at "),
    (None, lambda: sequences.parse_sequence("n/(n-2)").term(2), UndefinedTermError, IndexError,
     "sequence undefined at index 2"),
    (None, lambda: sequences.parse_sequence("1/n").term(0), UndefinedTermError, IndexError,
     "sequence undefined at index 0"),
    (None, lambda: sequences.parse_sequence("const:pi:5").term(6), UndefinedTermError, IndexError,
     "digits known only up to index 5"),
    (None, lambda: expr.eval_field(expr.Add(expr.Var("x"), "y"), {"x": 1}), CoercionError,
     TypeError, "not an expression node: 'y'"),
    # A node refuses a non-node operand when it is built, not at its first walk.
    (None, lambda: expr.Add(expr.Var("x"), "y"), CoercionError, TypeError,
     "not an expression node: 'y'"),
    (None, lambda: expr.Pow(2, Fraction(1, 2)), CoercionError, TypeError,
     "not an expression node: 2"),
    (None, lambda: expr.Neg(None), CoercionError, TypeError, "not an expression node: None"),
    # The base node type has no row in any table, so it is refused when built.
    (None, lambda: expr.eval_field(expr.Expr(), {}), CoercionError, TypeError,
     "Expr is the base of the node types and cannot be built"),
    (None, lambda: expr.render(expr.Add(expr.Expr(), expr.Var("x"))), CoercionError, TypeError,
     "Expr is the base of the node types and cannot be built"),
    (None, lambda: repr(expr.Expr()), CoercionError, TypeError,
     "Expr is the base of the node types and cannot be built"),
    # A malformed --at binding is an invalid argument, not the bare base class.
    (None, lambda: cli._parse_binding_list("x"), InvalidArgumentError, ValueError,
     "binding 'x' is not of the form name=value"),
    (None, lambda: cli._parse_binding_list("=3"), InvalidArgumentError, ValueError,
     "binding '=3' has an empty name"),
    # transfer_check runs an int number of trials, at least one.
    (None, lambda: expr.transfer_check(_X, _X, trials=2.5), CoercionError, TypeError,
     "expected int, got float"),
    (None, lambda: expr.transfer_check(_X, _X, trials=True), CoercionError, TypeError,
     "expected int, got bool"),
    (None, lambda: expr.transfer_check(_X, _X, trials=0), InvalidArgumentError, ValueError,
     "trials must be at least 1, got 0"),
    (None, lambda: expr.transfer_check(_X, _X, trials=-3), InvalidArgumentError, ValueError,
     "trials must be at least 1, got -3"),
    # An int or Fraction where an LCNumber is asked for is a constant, and meets the check
    # that the function makes of its argument.
    (None, lambda: shadows.conic_shadow(5, [0, 2, 4]), NotUnlimitedError, Exception,
     "H = 5 is limited"),
    (None, lambda: shadows.conic_point(5, 1), NotUnlimitedError, Exception, "H = 5 is limited"),
    (None, lambda: shadows.conic_chain_residuals(1, 0), NotUnlimitedError, Exception,
     "H = 1 is limited"),
    (None, lambda: shadows.line_LH_slope(Fraction(7, 2)), NotUnlimitedError, Exception,
     "H = 7/2 is limited"),
    (None, lambda: calculus.derivative(expr.parse("x^2"), 1, increment=1), NotInfinitesimalError,
     Exception, "increment must be a nonzero infinitesimal"),
    (None, lambda: calculus.product_rule_trace(1, 2, 1, EPS), NotInfinitesimalError, Exception,
     "du = 1 is not infinitesimal"),
    (None, lambda: calculus.product_rule_trace(1, 2, EPS, Fraction(1, 3)), NotInfinitesimalError,
     Exception, "dv = 1/3 is not infinitesimal"),
] + [
    # A text parser reads only a str.
    (None, lambda parse=parse: parse(None), CoercionError, TypeError, "expected str, got NoneType")
    for parse in (number.parse, expr.parse, sequences.parse_sequence)
] + [
    # A float is never read as a rational, and a string is never parsed.
    (None, call, CoercionError, TypeError, f"expected int or Fraction, got {kind}")
    for call, kind in [
        (lambda: expr.eval_rational(expr.parse("x + 1"), {"x": 0.1}), "float"),
        (lambda: expr.eval_field(_X, {"x": 0.1}), "float"),
        (lambda: expr.eval_rational(expr.parse("x + 1"), {"x": "1/3"}), "str"),
        (lambda: shadows.line_LH_shadow(0.1), "float"),
        (lambda: shadows.status_transitus_residual(_H(), 0.1, 0), "float"),
        (lambda: shadows.status_transitus_residual(_H(), 0, "1/3"), "str"),
        (lambda: shadows.conic_shadow(_H(), [0, 2, 0.1]), "float"),
        (lambda: shadows.conic_point(_H(), 0.1), "float"),
        (lambda: shadows.conic_chain_residuals(_H(), 0.1), "float"),
        (lambda: calculus.derivative(expr.parse("x^2"), 0.1), "float"),
        (lambda: calculus.derivative(expr.parse("x^2"), "1/3"), "str"),
        (lambda: calculus.second_derivative(expr.parse("x^2"), 0.1), "float"),
        (lambda: calculus.second_differential_check(_X, 0.5, _T2, 0), "float"),
        (lambda: calculus.second_differential_check(_X, 1, _T2, 0.1), "float"),
        (lambda: calculus.product_rule_trace(0.1, 1, EPS, EPS), "float"),
        (lambda: calculus.product_rule_trace(1, 0.1, EPS, EPS), "float"),
        (lambda: sequences.DecimalTruncation("pi", 5, 0.5), "float"),
        (lambda: sequences.DecimalTruncation("pi", 5, "1/2"), "str"),
        (lambda: EPS.coefficient(1.0), "float"),
        (lambda: EPS.coefficient(True), "bool"),
        # Nor is either read as an LCNumber.
        (lambda: shadows.line_LH_slope(2.0), "float"),
        (lambda: shadows.status_transitus_residual("x", 0, 0), "str"),
        (lambda: shadows.conic_shadow(None, [0, 2, 4]), "NoneType"),
        (lambda: calculus.derivative(expr.parse("x^2"), 1, increment=0.5), "float"),
        (lambda: calculus.product_rule_trace(1, 2, EPS, "eps"), "str"),
        (lambda: svg.zoom_svg(0.5), "float"),
        (lambda: sequences.RationalFunctionOfN.make(1, 0.5), "float"),
    ]
] + [
    # A sequence index is an int: never rounded, never parsed.
    (None, lambda src=src, n=n: sequences.parse_sequence(src).term(n), CoercionError, TypeError,
     f"expected int, got {type(n).__name__}")
    for src, n in [("1/n", 2.0), ("1/n", Fraction(3, 2)), ("1/n", "3"), ("const:pi:5", 2.0),
                   ("1/n", True), ("const:pi:5", True)]
]


@pytest.mark.parametrize("patch, call, typed, builtin, message", CASES)
def test_analysis_errors_are_typed(monkeypatch, patch, call, typed, builtin, message):
    if patch is not None:
        monkeypatch.setattr(shadows, *patch)
    with pytest.raises(typed) as info:
        call()
    assert isinstance(info.value, LCError) and isinstance(info.value, builtin)
    assert str(info.value).startswith(message)


def test_an_int_or_fraction_argument_is_a_constant():
    assert svg.zoom_svg(3) == svg.zoom_svg(LCNumber.from_rational(3))
    assert sequences.RationalFunctionOfN.make(1, Fraction(2)) == sequences.RationalFunctionOfN.make(
        LCNumber.from_rational(1), LCNumber.from_rational(2))


def test_new_error_classes_are_exported():
    for cls in (InvalidArgumentError, UndefinedTermError, InconsistentRelationError):
        assert getattr(lcfield, cls.__name__) is cls and cls.__name__ in lcfield.__all__
