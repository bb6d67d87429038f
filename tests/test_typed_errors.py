"""The analysis layers raise LCError subclasses that keep their builtin bases.

Each site keeps its message and stays catchable as the builtin it raised
before, so `except ValueError` / `IndexError` / `ArithmeticError` / `TypeError`
in callers still hold, and one `except LCError` catches them all.
"""

from fractions import Fraction as F

import pytest

import lcfield
from lcfield import calculus, expr, sequences, shadows
from lcfield.errors import (
    CoercionError,
    InconsistentRelationError,
    InvalidArgumentError,
    LCError,
    UndefinedTermError,
)
from lcfield.number import LCNumber


def _residual_quadratic_in_y(H, x0, y, depth):
    return LCNumber.from_rational(F(y) * y)


def _residual_free_of_y(H, x0, y, depth):
    return LCNumber.from_rational(1)


_H = shadows.default_unlimited


# (patch or None, call, typed class, builtin base, message prefix)
CASES = [
    (None, lambda: calculus.derivative(expr.parse("x*y"), 1), InvalidArgumentError, ValueError,
     "expected a univariate expression, got variables ['x', 'y']"),
    (None, lambda: calculus.second_differential_check(expr.parse("x"), 0, expr.parse("t"), 0),
     InvalidArgumentError, ValueError, "parameter a must be nonzero"),
    (None, lambda: shadows.conic_shadow(_H(), [0, 0, 2]), InvalidArgumentError, ValueError,
     "need at least 3 distinct sample abscissas"),
    (None, lambda: shadows._fit_parabola([(F(0), F(0)), (F(1), F(1)), (F(2), F(4)), (F(3), F(0))]),
     InconsistentRelationError, ArithmeticError, "sample points do not lie on one parabola"),
    (("status_transitus_residual", _residual_quadratic_in_y),
     lambda: shadows.conic_shadow(_H(), [0, 2, 4]),
     InconsistentRelationError, ArithmeticError, "shadow relation is not linear in y"),
    (("status_transitus_residual", _residual_free_of_y),
     lambda: shadows.conic_shadow(_H(), [0, 2, 4]),
     InconsistentRelationError, ArithmeticError, "shadow relation does not determine y"),
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
