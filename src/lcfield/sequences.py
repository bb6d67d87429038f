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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import ParseError, UnlimitedError, UnsupportedKindError, ZeroDivisionLCError
from .expr import Add, Div, Expr, Lit, Mul, Neg, Pow, Sqrt, Sub, Var, parse as parse_expr
from .number import DEFAULT_DEPTH, LCNumber

Rational = Union[int, Fraction]

#: Leading decimal digits of the supported declared constants.
CONSTANT_DIGITS = {
    "pi": "3.14159265358979323846264338327950288419716939937510",
    "sqrt2": "1.41421356237309504880168872420969807856967187537694",
    "e": "2.71828182845904523536028747135266249775724709369995",
}


# ---------------------------------------------------------------------------
# Exact univariate polynomials (ascending coefficients)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Poly:
    coeffs: tuple[Fraction, ...]  # ascending; no trailing zeros

    @classmethod
    def make(cls, coeffs) -> "Poly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def const(cls, c: Rational) -> "Poly":
        return cls.make([c])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        # -1 for the zero polynomial, by convention.
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly.make([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.make(out)

    def __call__(self, n: Rational) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*n" if abs(c) != 1 else ("-n" if c < 0 else "n"))
            else:
                head = f"{c}*" if abs(c) != 1 else ("-" if c < 0 else "")
                parts.append(f"{head}n^{i}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Sequence kinds
# ---------------------------------------------------------------------------


class RationalSequence:
    """Common base for the supported sequence kinds."""

    def term(self, n: int) -> Fraction:
        raise NotImplementedError


@dataclass(frozen=True)
class RationalFunctionOfN(RationalSequence):
    """The sequence n |-> p(n)/q(n)."""

    p: Poly
    q: Poly
    offset: int = 1  # first index where q is guaranteed nonzero

    @classmethod
    def make(cls, p: Poly, q: Poly) -> "RationalFunctionOfN":
        if q.is_zero:
            raise ZeroDivisionLCError("zero denominator polynomial")
        # Integer roots of q lie within the Cauchy bound; the offset is the
        # smallest index past every root.
        bound = max(1, int(1 + max(abs(c / q.leading) for c in q.coeffs)))
        offset = 1
        for n in range(1, bound + 1):
            if q(n) == 0:
                offset = n + 1
        return cls(p, q, offset)

    @classmethod
    def constant(cls, c: Rational) -> "RationalFunctionOfN":
        return cls.make(Poly.const(c), Poly.const(1))

    def term(self, n: int) -> Fraction:
        if n < self.offset:
            raise IndexError(f"sequence defined from index {self.offset}")
        return self.p(n) / self.q(n)

    def __str__(self) -> str:
        return f"({self.p})/({self.q})"


@dataclass(frozen=True)
class DecimalTruncation(RationalSequence):
    """Truncations of a declared constant: a_n = first n decimal digits."""

    tag: str
    known_digits: int
    shift: Fraction = Fraction(0)

    def __post_init__(self):
        if self.tag not in CONSTANT_DIGITS:
            raise ValueError(f"unknown constant tag {self.tag!r}")
        available = len(CONSTANT_DIGITS[self.tag].split(".")[1])
        if not 1 <= self.known_digits <= available:
            raise ValueError(f"known_digits must be in 1..{available}")

    def term(self, n: int) -> Fraction:
        if not 1 <= n <= self.known_digits:
            raise IndexError(f"digits known only up to index {self.known_digits}")
        whole, frac = CONSTANT_DIGITS[self.tag].split(".")
        return Fraction(int(whole + frac[:n]), 10**n) + self.shift

    @property
    def constant_label(self) -> str:
        if self.shift == 0:
            return self.tag
        sign = "+" if self.shift > 0 else "-"
        return f"{self.tag} {sign} {abs(self.shift)}"

    def __str__(self) -> str:
        return f"const:{self.constant_label}:{self.known_digits}"


@dataclass(frozen=True)
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
        if b.p.degree <= 0 and b.q.degree <= 0:
            c = b.term(b.offset)
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
        return a.p.is_zero or a.p.degree < a.q.degree
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
    d = seq_add(a, RationalFunctionOfN.make(-b.p, b.q))
    assert isinstance(d, RationalFunctionOfN)
    if d.p.is_zero:
        return False
    return (d.p.leading > 0) == (d.q.leading > 0)


def decompose(a: RationalSequence) -> Decomposition:
    """Split a convergent sequence into its limit and the residue's sign."""
    if isinstance(a, DecimalTruncation):
        # Truncation always undershoots a positive irrational.
        return Decomposition(a.constant_label, -1)
    if not isinstance(a, RationalFunctionOfN):
        raise UnsupportedKindError(f"unsupported kind {type(a).__name__}")
    if not a.p.is_zero and a.p.degree > a.q.degree:
        raise UnlimitedError("sequence is unbounded; no finite limit")
    if a.p.degree == a.q.degree:
        limit = a.p.leading / a.q.leading
    else:
        limit = Fraction(0)
    residue = seq_add(a, RationalFunctionOfN.constant(-limit))
    assert isinstance(residue, RationalFunctionOfN)
    if residue.p.is_zero:
        sign = 0
    else:
        sign = 1 if (residue.p.leading > 0) == (residue.q.leading > 0) else -1
    return Decomposition(limit, sign)


def asymptotic_embed(a: RationalSequence, depth: int = DEFAULT_DEPTH) -> LCNumber:
    """Expand p(n)/q(n) in powers of 1/n, reading 1/n as eps.

    Exact whenever the division terminates (e.g. a monomial denominator);
    otherwise truncated per the field's division rule at the given depth.
    """
    if not isinstance(a, RationalFunctionOfN):
        raise UnsupportedKindError("embedding needs a rational function of n")
    num = LCNumber([(-i, c) for i, c in enumerate(a.p.coeffs)])
    den = LCNumber([(-i, c) for i, c in enumerate(a.q.coeffs)])
    return num * den.inv(depth)


# ---------------------------------------------------------------------------
# Sequence literals
# ---------------------------------------------------------------------------

_CONST_RE = re.compile(r"const:([a-zA-Z][a-zA-Z0-9]*)(?::(\d+))?$")


def _as_rational_function(e: Expr) -> tuple[Poly, Poly]:
    """Fold an expression in the single variable n into a (p, q) pair."""
    if isinstance(e, Var):
        if e.name != "n":
            raise ParseError(f"sequences use the index variable 'n', not {e.name!r}", 0)
        return Poly.make([0, 1]), Poly.const(1)
    if isinstance(e, Lit):
        return Poly.const(e.value), Poly.const(1)
    if isinstance(e, Neg):
        p, q = _as_rational_function(e.operand)
        return -p, q
    if isinstance(e, (Add, Sub)):
        pa, qa = _as_rational_function(e.left)
        pb, qb = _as_rational_function(e.right)
        if isinstance(e, Sub):
            pb = -pb
        return pa * qb + pb * qa, qa * qb
    if isinstance(e, Mul):
        pa, qa = _as_rational_function(e.left)
        pb, qb = _as_rational_function(e.right)
        return pa * pb, qa * qb
    if isinstance(e, Div):
        pa, qa = _as_rational_function(e.left)
        pb, qb = _as_rational_function(e.right)
        if pb.is_zero:
            raise ZeroDivisionLCError("division by the zero sequence")
        return pa * qb, qa * pb
    if isinstance(e, Pow):
        if e.exponent.denominator != 1:
            raise ParseError("sequence powers must be integers", 0)
        k = e.exponent.numerator
        p, q = _as_rational_function(e.base)
        if k < 0:
            if p.is_zero:
                raise ZeroDivisionLCError("negative power of the zero sequence")
            p, q, k = q, p, -k
        rp, rq = Poly.const(1), Poly.const(1)
        for _ in range(k):
            rp, rq = rp * p, rq * q
        return rp, rq
    if isinstance(e, Sqrt):
        raise ParseError("sqrt is not available in sequence literals", 0)
    raise TypeError(f"not an expression node: {e!r}")


def parse_sequence(src: str) -> RationalSequence:
    """Parse "poly(n)/poly(n)" (expression syntax in n) or "const:pi[:digits]"."""
    src = src.strip()
    m = _CONST_RE.match(src)
    if m:
        tag = m.group(1)
        if tag not in CONSTANT_DIGITS:
            raise ParseError(f"unknown constant tag {tag!r}", 0)
        digits = int(m.group(2)) if m.group(2) else 20
        try:
            return DecimalTruncation(tag, digits)
        except ValueError as exc:  # the digit count is out of range
            raise ParseError(str(exc), m.start(2)) from None
    p, q = _as_rational_function(parse_expr(src))
    return RationalFunctionOfN.make(p, q)
