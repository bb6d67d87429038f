"""lcfield: exact computable arithmetic on an infinitesimal-enriched field.

Numbers are truncated formal series in a positive infinitesimal ``eps`` with
exact rational exponents and coefficients.  On top of the field sit a small
expression language evaluated verbatim over it, a differentiation engine
based on the standard part, the classic shadow constructions (parallel line,
parabola-from-ellipse, tangent-from-secant), and a decidable model of the
sequence construction of infinitesimals.
"""

from .errors import (
    CoercionError,
    LCError,
    NegativeRootError,
    NotAnNthPowerError,
    NotAPerfectSquareError,
    NotInfinitesimalError,
    NotUnlimitedError,
    DegenerateProgressionError,
    InconsistentRelationError,
    InvalidArgumentError,
    ParseError,
    RootIndexError,
    UnboundVariableError,
    UndecidableError,
    UndefinedTermError,
    UnlimitedError,
    UnsupportedKindError,
    ZeroDivisionLCError,
    ZeroInputError,
)
from .number import (
    DEFAULT_DEPTH,
    EPS,
    ONE,
    ZERO,
    Comparison,
    LCNumber,
    OrderClass,
)

__version__ = "0.1.0"

__all__ = [
    "LCNumber",
    "Comparison",
    "OrderClass",
    "EPS",
    "ONE",
    "ZERO",
    "DEFAULT_DEPTH",
    "LCError",
    "UndecidableError",
    "UnlimitedError",
    "ZeroDivisionLCError",
    "ZeroInputError",
    "NotAnNthPowerError",
    "NotAPerfectSquareError",
    "NegativeRootError",
    "NotInfinitesimalError",
    "NotUnlimitedError",
    "DegenerateProgressionError",
    "UnsupportedKindError",
    "UnboundVariableError",
    "ParseError",
    "CoercionError",
    "RootIndexError",
    "InvalidArgumentError",
    "UndefinedTermError",
    "InconsistentRelationError",
    "__version__",
]
