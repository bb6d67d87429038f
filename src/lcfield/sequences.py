"""A decidable fragment of the sequence construction of infinitesimals.

Sequences of rationals form a ring under termwise operations; the ones that
tend to zero are the prototypes of infinitesimals, and the eventually-zero
ones embed to exactly zero.  Supporting every sequence would require a
non-constructive choice of ideal, so this module restricts itself to two
kinds where every predicate is decidable:

* rational functions of the index ``n`` with rational coefficients, and
* decimal-truncation streams of a declared irrational constant
  (``3.1, 3.14, 3.141, ...``), identified by a symbolic tag.

``asymptotic_embed`` expands a rational function of ``n`` in powers of
``1/n`` and maps it into the truncated-series field with ``1/n <-> eps``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import (
    InvalidArgumentError, ParseError, UndefinedTermError, UnlimitedError, UnsupportedKindError,
    ZeroDivisionLCError,
)
from .expr import Add, Div, Expr, Lit, Mul, Neg, Pow, Sub, Var, _Parser, fold
from .number import (
    DEFAULT_DEPTH, ONE, LCNumber, Rational, _exact, poly_text, rational_text, record,
)

#: Leading decimal digits of the supported declared constants.
CONSTANT_DIGITS = {
    "pi": "3.14159265358979323846264338327950288419716939937510",
    "sqrt2": "1.41421356237309504880168872420969807856967187537694",
    "e": "2.71828182845904523536028747135266249775724709369995",
}


#: The index n, as the unlimited eps^(-1); a polynomial in n is an exact
#: LCNumber whose term c*n^i is stored as c*eps^(-i).
N = LCNumber.monomial(1, -1)


def _at(p: LCNumber, n: int) -> Fraction:
    """Value of a polynomial in n at the index n.  ``make`` keeps p on the lattice Z, so
    each stored pair ``(e, a)`` is the term (a/Q)*n^(-e) over p's one denominator Q; the
    sum is one Fraction, and no Fraction view is built."""
    return Fraction(sum([a * n**-e for e, a in p._ints]), p._Q)


# ---------------------------------------------------------------------------
# Sequence kinds
# ---------------------------------------------------------------------------


@record
class RationalFunctionOfN:
    """The sequence n |-> p(n)/q(n).

    ``p`` and ``q`` are exact polynomials in n, held as LCNumbers in
    eps = 1/n (see :data:`N`).
    """

    p: LCNumber
    q: LCNumber

    @classmethod
    def make(cls, p: LCNumber, q: LCNumber) -> "RationalFunctionOfN":
        p, q = LCNumber._coerce(p), LCNumber._coerce(q)
        if q.is_zero:
            raise ZeroDivisionLCError("zero denominator polynomial")
        exact = p.trunc is None and q.trunc is None
        if not exact or any(e > 0 or e.denominator != 1 for e, _ in p.terms + q.terms):
            raise UnsupportedKindError("p and q must be exact polynomials in n")
        return cls(p, q)

    @classmethod
    def constant(cls, c: Rational) -> "RationalFunctionOfN":
        return cls.make(LCNumber.from_rational(c), ONE)

    def term(self, n: int) -> Fraction:
        """p(n)/q(n); UndefinedTermError for n < 1 and where q(n) = 0."""
        q = _at(self.q, _exact(n, (int,)))
        if n < 1 or q == 0:
            raise UndefinedTermError(f"sequence undefined at index {rational_text(n)}")
        return _at(self.p, n) / q

    def __str__(self) -> str:
        p, q = (poly_text([(-e, c) for e, c in reversed(x.terms)], "n") for x in (self.p, self.q))
        return f"({p})/({q})"


@record
class DecimalTruncation:
    """Truncations of a declared constant: a_n = first n decimal digits."""

    tag: str
    known_digits: int
    shift: Fraction = Fraction(0)

    def __post_init__(self):
        if self.tag not in CONSTANT_DIGITS:
            raise InvalidArgumentError(f"unknown constant tag {self.tag!r}")
        available = len(CONSTANT_DIGITS[self.tag].split(".")[1])
        if not 1 <= _exact(self.known_digits, (int,)) <= available:
            raise InvalidArgumentError(f"known_digits must be in 1..{available}")
        _exact(self.shift)

    def term(self, n: int) -> Fraction:
        if not 1 <= _exact(n, (int,)) <= self.known_digits:
            raise UndefinedTermError(f"digits known only up to index {self.known_digits}")
        whole, frac = CONSTANT_DIGITS[self.tag].split(".")
        return Fraction(int(whole + frac[:n]), 10**n) + self.shift

    @property
    def constant_label(self) -> str:
        if self.shift == 0:
            return self.tag
        sign = "+" if self.shift > 0 else "-"
        return f"{self.tag} {sign} {rational_text(abs(self.shift))}"

    def __str__(self) -> str:
        return f"const:{self.constant_label}:{self.known_digits}"


RationalSequence = Union[RationalFunctionOfN, DecimalTruncation]


@record
class Decomposition:
    """Constant part plus the eventual sign of the residue null sequence."""

    standard_part: Union[Fraction, str]
    residue_sign: int  # -1, 0, or +1


# ---------------------------------------------------------------------------
# Ring operations and predicates
# ---------------------------------------------------------------------------


def seq_add(a: RationalSequence, b: RationalSequence) -> RationalSequence:
    if isinstance(a, RationalFunctionOfN) and isinstance(b, RationalFunctionOfN):
        return RationalFunctionOfN.make(a.p * b.q + b.p * a.q, a.q * b.q)
    if isinstance(a, RationalFunctionOfN):
        a, b = b, a
    if isinstance(a, DecimalTruncation) and isinstance(b, RationalFunctionOfN):
        if b.p.leading_exponent >= 0 and b.q.leading_exponent >= 0:  # both constants
            c = b.term(1)
            return DecimalTruncation(a.tag, a.known_digits, a.shift + c)
        raise UnsupportedKindError(
            "decimal streams close under addition with rationals only"
        )
    raise UnsupportedKindError("unsupported sequence kinds for addition")


def seq_mul(a: RationalSequence, b: RationalSequence) -> RationalSequence:
    if isinstance(a, RationalFunctionOfN) and isinstance(b, RationalFunctionOfN):
        return RationalFunctionOfN.make(a.p * b.p, a.q * b.q)
    raise UnsupportedKindError("products involving decimal streams are not closed")


def is_null(a: RationalSequence) -> bool:
    """Does the sequence tend to zero?"""
    if isinstance(a, RationalFunctionOfN):
        # Decided by the embedding's leading term, which is exact at any depth.
        return asymptotic_embed(a, 1).is_infinitesimal()
    if isinstance(a, DecimalTruncation):
        # Bounded below, away from zero: the constants are irrational,
        # so truncations settle near tag + shift != 0.
        return False
    raise UnsupportedKindError(f"unsupported kind {type(a).__name__}")


def eventually_zero(a: RationalSequence) -> bool:
    if isinstance(a, RationalFunctionOfN):
        return a.p.is_zero
    raise UnsupportedKindError("eventual-zero test needs a rational function of n")


def eventually_dominates(a: RationalSequence, b: RationalSequence) -> bool:
    """Is a_n > b_n for all sufficiently large n?"""
    if not (isinstance(a, RationalFunctionOfN) and isinstance(b, RationalFunctionOfN)):
        raise UnsupportedKindError("dominance needs rational functions of n")
    return asymptotic_embed(seq_add(a, RationalFunctionOfN.make(-b.p, b.q)), 1) > 0


def decompose(a: RationalSequence) -> Decomposition:
    """Split a convergent sequence into its limit and the residue's sign."""
    if isinstance(a, DecimalTruncation):
        # Truncation always undershoots a positive irrational.
        return Decomposition(a.constant_label, -1)
    if not isinstance(a, RationalFunctionOfN):
        raise UnsupportedKindError(f"unsupported kind {type(a).__name__}")
    # The embedding's leading term is exact at any depth, and it decides all.
    lead = asymptotic_embed(a, 1)
    if not lead.is_limited():
        raise UnlimitedError("sequence is unbounded; no finite limit")
    limit = lead.st()
    residue = asymptotic_embed(seq_add(a, RationalFunctionOfN.constant(-limit)), 1)
    return Decomposition(limit, residue.compare(0).value)


def asymptotic_embed(a: RationalSequence, depth: int = DEFAULT_DEPTH) -> LCNumber:
    """Expand p(n)/q(n) in powers of 1/n, reading 1/n as eps.

    Exact whenever the division terminates (e.g. a monomial denominator);
    otherwise truncated per the field's division rule at the given depth.
    """
    if not isinstance(a, RationalFunctionOfN):
        raise UnsupportedKindError("embedding needs a rational function of n")
    return a.p * a.q.inv(depth)


# ---------------------------------------------------------------------------
# Sequence literals
# ---------------------------------------------------------------------------

# Any literal that starts with "const:" is a stream: the tag up to ":", then the count.
_CONST_RE = re.compile(r"\s*const:([^:]*?)(?::(.*?))?\s*", re.DOTALL)


class _SequenceParser(_Parser):
    """The expression grammar restricted to sequence literals: the one name
    ``n``, no ``sqrt`` and integer powers only."""

    def atom(self) -> Expr:
        tok = self.peek()
        if self.at("sqrt"):
            raise ParseError("sqrt is not available in sequence literals", tok[2])
        node = super().atom()
        if type(node) is Var and node.name != "n":
            raise ParseError(f"sequences use the index variable 'n', not {node.name!r}", tok[2])
        return node

    def exponent(self) -> Fraction:
        tok = self.peek()
        q = super().exponent()
        if q.denominator != 1:
            raise ParseError("sequence powers must be integers", tok[2])
        return q


def _seq_div(a: tuple, b: tuple) -> tuple:
    if b[0].is_zero:
        raise ZeroDivisionLCError("division by the zero sequence")
    return a[0] * b[1], a[1] * b[0]


def _seq_pow(a: tuple, q: Fraction) -> tuple:
    if q < 0 and a[0].is_zero:
        raise ZeroDivisionLCError("negative power of the zero sequence")
    p, r = a if q >= 0 else reversed(a)
    k = abs(q.numerator)
    return p.pow_int(k), r.pow_int(k)


# Values are pairs (p, q) of polynomials in n, read as p(n)/q(n).
_SEQUENCE_RING = {
    Var: lambda name: (N, ONE),
    Lit: lambda value: (LCNumber.from_rational(value), ONE),
    Add: lambda a, b: (a[0] * b[1] + b[0] * a[1], a[1] * b[1]),
    Sub: lambda a, b: (a[0] * b[1] - b[0] * a[1], a[1] * b[1]),
    Mul: lambda a, b: (a[0] * b[0], a[1] * b[1]),
    Div: _seq_div,
    Neg: lambda a: (-a[0], a[1]),
    Pow: _seq_pow,
}


def parse_sequence(src: str) -> RationalSequence:
    """Parse "poly(n)/poly(n)" (expression syntax in n) or "const:pi[:digits]"."""
    m = _CONST_RE.fullmatch(_exact(src, (str,)))
    if m:
        tag, count = m.groups()
        if tag not in CONSTANT_DIGITS:
            raise ParseError(f"unknown constant tag {tag!r}", m.start(1))
        if count is not None and not re.fullmatch("[0-9]+", count):
            raise ParseError(f"expected a digit count, got {count!r}", m.start(2))
        try:
            return DecimalTruncation(tag, 20 if count is None else int(count))
        except ValueError as exc:  # the digit count is out of range or past int's limit
            raise ParseError(str(exc), m.start(2)) from None
    p, q = fold(_SequenceParser(src).parse(), _SEQUENCE_RING)
    return RationalFunctionOfN.make(p, q)
