"""Exception hierarchy shared by all lcfield modules.

Everything raised on purpose derives from :class:`LCError`, so callers can
catch one type at the CLI boundary.  ``UndecidableError`` is special: it never
means "wrong input", it means the truncation order of a computed series is too
small to answer the question that was asked.
"""

from __future__ import annotations


class LCError(Exception):
    """Base class for all lcfield errors."""


class UndecidableError(LCError):
    """The answer is hidden behind a bounded truncation order.

    Raised instead of guessing whenever a predicate (comparison, zero test,
    standard part) depends on coefficients beyond the known terms.
    """


class ZeroDivisionLCError(LCError, ZeroDivisionError):
    """Division or inversion of an exactly zero element."""


class RootIndexError(LCError, ValueError):
    """An n-th root was requested for an index n that is not positive."""


class CoercionError(LCError, TypeError):
    """An operand is neither an int, a Fraction nor an LCNumber."""


class InvalidArgumentError(LCError, ValueError):
    """An argument is outside what the operation accepts."""


class UndefinedTermError(LCError, IndexError):
    """A sequence term was requested at an index where it is undefined."""


class InconsistentRelationError(LCError, ArithmeticError):
    """An exact relation that a shadow construction relies on does not hold."""


class UnlimitedError(LCError):
    """A standard part was requested for a number with a negative-exponent term."""


class ZeroInputError(LCError):
    """The dominant-term reduction has no dominant term to keep."""


class NotAnNthPowerError(LCError):
    """The leading coefficient has no rational n-th root."""


class NegativeRootError(NotAnNthPowerError):
    """Even root of a negative leading coefficient."""


class NotAPerfectSquareError(NotAnNthPowerError):
    """Square root of a rational that is not a perfect square of a rational."""


class NotInfinitesimalError(LCError):
    """An increment that must be infinitesimal is not."""


class NotUnlimitedError(LCError):
    """A parameter that must be unlimited (infinite) is limited."""


class DegenerateProgressionError(LCError):
    """Second differences of the sampling progression vanish."""


class UnsupportedKindError(LCError):
    """A sequence operation is not closed for the given sequence kinds."""


class UnboundVariableError(LCError):
    """An expression was evaluated with a free variable left unbound."""


class ParseError(LCError):
    """Syntax error in an expression or number literal.

    ``pos`` is the character offset of the offending token in the source text.
    """

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos
