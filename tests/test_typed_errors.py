"""The analysis layers raise LCError subclasses that keep their builtin bases.

Each site keeps its message and stays catchable as the builtin it raised
before, so `except ValueError` / `IndexError` / `ArithmeticError` / `TypeError`
in callers still hold, and one `except LCError` catches them all.
"""

from fractions import Fraction

import pytest

import lcfield
from lcfield import calculus, cli, expr, sequences, shadows
from lcfield.errors import (
    CoercionError,
    InconsistentRelationError,
    InvalidArgumentError,
    LCError,
    UndefinedTermError,
)
from lcfield.number import EPS


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


def test_new_error_classes_are_exported():
    for cls in (InvalidArgumentError, UndefinedTermError, InconsistentRelationError):
        assert getattr(lcfield, cls.__name__) is cls and cls.__name__ in lcfield.__all__
