"""Exact arithmetic on an infinitesimal-enriched ordered field.

An :class:`LCNumber` is a finite, truncated formal series

    c_1 * eps^(q_1) + c_2 * eps^(q_2) + ... + O(eps^(T))

in a fixed positive infinitesimal ``eps``, with exact rational coefficients
``c_i`` and exact rational exponents ``q_1 < q_2 < ...``.  A *larger* exponent
means a *smaller* magnitude: ``eps^2`` is infinitely smaller than ``eps``, and
``eps^(-1)`` is unlimited (infinite).  The truncation order ``T`` is either a
rational bound (all exponents ``>= T`` are unknown) or ``None``, meaning the
stored terms are the whole number.

Values are immutable; every operation returns a fresh canonical value.  All
arithmetic is exact — there is no floating point anywhere in this module.
"""

from __future__ import annotations

import enum
import re
import sys
from bisect import bisect_left
from fractions import Fraction
from math import ceil, gcd, isqrt, lcm
from typing import Iterable, Optional, Union

from .errors import (
    CoercionError,
    InvalidArgumentError,
    NegativeRootError,
    NotAnNthPowerError,
    ParseError,
    RootIndexError,
    UndecidableError,
    UnlimitedError,
    ZeroDivisionLCError,
    ZeroInputError,
)

Rational = Union[int, Fraction]
Scalar = Union[int, Fraction, "LCNumber"]

#: Default relative truncation depth (in exponent steps) of power series.
DEFAULT_DEPTH = 16


class Comparison(enum.Enum):
    LT = -1
    EQ = 0
    GT = 1


class OrderClass:
    """Leading order of magnitude: a leading exponent plus a sign.

    Two nonzero numbers with distinct leading exponents are incommensurable:
    no finite multiple of the smaller-order one ever exceeds the other.
    """

    __slots__ = ("leading_exponent", "sign")

    def __init__(self, leading_exponent: Fraction, sign: int):
        self.leading_exponent = leading_exponent
        self.sign = sign  # -1, 0, or +1

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrderClass):
            return NotImplemented
        return (self.leading_exponent, self.sign) == (other.leading_exponent, other.sign)

    def __hash__(self) -> int:
        return hash((self.leading_exponent, self.sign))

    def __repr__(self) -> str:
        return f"OrderClass(exponent={self.leading_exponent}, sign={self.sign:+d})"


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    n = gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(n, a.denominator * b.denominator)


def _min_trunc(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _int_nth_root(x: int, n: int) -> Optional[int]:
    """Exact n-th root of a nonnegative integer, or None."""
    if x in (0, 1):
        return x
    if n == 2:
        r = isqrt(x)
    else:
        # Integer Newton from above: 2^ceil(bits/n) exceeds the root, and the
        # iterates decrease to floor(x^(1/n)).
        r = 1 << -(-x.bit_length() // n)
        while True:
            s = ((n - 1) * r + x // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r**n == x else None


def rational_nth_root(c: Fraction, n: int) -> Fraction:
    """Exact rational n-th root of c, or raise."""
    if c < 0:
        if n % 2 == 0:
            raise NegativeRootError(f"even root of negative coefficient {c}")
        return -rational_nth_root(-c, n)
    num = _int_nth_root(c.numerator, n)
    den = _int_nth_root(c.denominator, n)
    if num is None or den is None:
        raise NotAnNthPowerError(f"{c} has no rational {n}-th root")
    return Fraction(num, den)


def _binomial_series(rel: list, alpha: Fraction, n: int) -> list:
    """Coefficients g_0..g_(n-1) of (1 + u)^alpha, u = sum of a_j * x^j.

    ``rel`` lists the nonzero (j, a_j), j >= 1 ascending.  J.C.P. Miller's
    recurrence (Knuth, TAOCP Vol. 2, 4.7) costs O(n * len(rel)):
    g_0 = 1, g_k = (1/k) * sum_j ((alpha + 1) * j - k) * a_j * g_(k-j).
    Each sum runs on integers over the lcm L of its terms' denominators, so
    g_k = s / (q*k*L) for alpha = p/q and an integer s: one ``Fraction`` per g_k.
    """
    p, q = alpha.numerator, alpha.denominator
    rel = [(j, a.numerator, a.denominator) for j, a in rel]
    g = [Fraction(1)]
    for k in range(1, n):
        used = [(j, a, b, g[k - j]) for j, a, b in rel[: bisect_left(rel, (k + 1,))]]
        L = lcm(*[b * c.denominator for _, _, b, c in used])
        # (alpha + 1) * j - k == ((p + q) * j - q * k) / q
        s = sum(((p + q) * j - q * k) * a * c.numerator * (L // (b * c.denominator))
                for j, a, b, c in used)
        g.append(Fraction(s, q * k * L))
    return g[:n]  # nothing for n < 1


def _exact(x, kinds: tuple = (int, Fraction)):
    """x if it is one of ``kinds`` and not a bool; a float, say, is refused, never rounded."""
    if isinstance(x, kinds) and type(x) is not bool:
        return x
    names = " or ".join(kind.__name__ for kind in kinds)
    raise CoercionError(f"expected {names}, got {type(x).__name__}")


class LCNumber:
    """A truncated series in the infinitesimal ``eps`` with rational data."""

    __slots__ = ("terms", "trunc")

    def __new__(
        cls,
        terms: Iterable[tuple[Rational, Rational]] = (),
        trunc: Optional[Rational] = None,
    ) -> "LCNumber":
        acc: dict = {}
        for q, c in terms:
            q = Fraction(_exact(q))
            acc[q] = acc.get(q, Fraction(0)) + Fraction(_exact(c))
        return cls._canon(acc.items(), None if trunc is None else Fraction(_exact(trunc)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, terms: tuple, trunc: Optional[Fraction]) -> "LCNumber":
        """Trusted: ``terms`` are ascending, nonzero ``Fraction`` pairs below ``trunc``."""
        # Kernel tuples are built from lists: one built from a generator is resized after
        # allocation, which fills CPython's per-size tuple free lists (~3 MB more peak RSS).
        x = object.__new__(cls)
        x.terms = terms
        x.trunc = trunc
        return x

    @classmethod
    def _canon(cls, pairs, trunc: Optional[Fraction]) -> "LCNumber":
        """Trusted: the caller passes distinct ``Fraction`` exponents, ``Fraction`` coefficients
        and a ``Fraction`` or ``None`` trunc; drops zeros and terms at or above trunc, sorts."""
        kept = ((q, c) for q, c in pairs if c and (trunc is None or q < trunc))
        return cls._make(tuple(sorted(kept)), trunc)

    @classmethod
    def from_rational(cls, r: Rational) -> "LCNumber":
        return cls._canon([(Fraction(0), Fraction(_exact(r)))], None)

    @classmethod
    def monomial(cls, coeff: Rational, exponent: Rational) -> "LCNumber":
        return cls([(exponent, coeff)])

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """Exactly zero: no terms and no truncation bound hiding any."""
        return not self.terms and self.trunc is None

    @property
    def leading_exponent(self) -> Fraction:
        """Exponent of the dominant term; 0 for the zero element."""
        if not self.terms:
            return Fraction(0)
        return self.terms[0][0]

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[0][1]

    def coefficient(self, exponent: Rational) -> Fraction:
        q = Fraction(exponent)
        for e, c in self.terms:
            if e == q:
                return c
        return Fraction(0)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(x: Scalar) -> "LCNumber":
        return x if isinstance(x, LCNumber) else LCNumber.from_rational(x)

    def __add__(self, other: Scalar) -> "LCNumber":
        b = self._coerce(other)
        trunc = _min_trunc(self.trunc, b.trunc)
        x, y = self.terms, b.terms
        if trunc is not None:
            x, y = x[: bisect_left(x, (trunc,))], y[: bisect_left(y, (trunc,))]
        # One merge of the two ascending term tuples.
        out, i, j = [], 0, 0
        while i < len(x) and j < len(y):
            (qa, ca), (qb, cb) = x[i], y[j]
            if qa == qb:
                if ca + cb:
                    out.append((qa, ca + cb))
                i, j = i + 1, j + 1
            elif qa < qb:
                out.append(x[i])
                i += 1
            else:
                out.append(y[j])
                j += 1
        return LCNumber._make(tuple(out) + x[i:] + y[j:], trunc)

    __radd__ = __add__

    def __neg__(self) -> "LCNumber":
        return LCNumber._make(tuple([(q, -c) for q, c in self.terms]), self.trunc)

    def __sub__(self, other: Scalar) -> "LCNumber":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "LCNumber":
        return self._coerce(other) - self

    def __mul__(self, other: Scalar) -> "LCNumber":
        b = self._coerce(other)
        if self.is_zero or b.is_zero:
            return LCNumber()
        # O(eps^Ta) times a factor whose exponents are all >= lb contributes
        # unknowns from eps^(Ta+lb) on; a term-less factor's lb is its own T.
        lo_a = self.terms[0][0] if self.terms else self.trunc
        lo_b = b.terms[0][0] if b.terms else b.trunc
        bound = None
        if self.trunc is not None:
            bound = self.trunc + lo_b
        if b.trunc is not None:
            bound = _min_trunc(bound, b.trunc + lo_a)
        # On integers: exponent q is q*D, D the lcm of all exponent denominators.  A sum's
        # denominator is the lcm of its own products' ones, not an operand-wide lcm.
        x, y = self.terms, b.terms
        D = lcm(*[q.denominator for q, _ in x + y])
        xs = [(q.numerator * (D // q.denominator), c.numerator, c.denominator) for q, c in x]
        ys = [(q.numerator * (D // q.denominator), c.numerator, c.denominator) for q, c in y]
        # For an integer k, k < bound*D iff k < ceil(bound*D); with no bound, both have terms.
        top = xs[-1][0] + ys[-1][0] + 1 if bound is None else ceil(bound * D)
        prod: dict = {}
        for e, na, da in xs:
            for f, nb, db in ys:
                k = e + f
                if k >= top:
                    break
                n, d = na * nb, da * db
                if k in prod:
                    s, t = prod[k]
                    if t == d:
                        n += s
                    else:
                        m = lcm(t, d)
                        n, d = s * (m // t) + n * (m // d), m
                prod[k] = n, d
        terms = [(Fraction(k, D), Fraction(n, d)) for k, (n, d) in sorted(prod.items()) if n]
        return LCNumber._make(tuple(terms), bound)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "LCNumber":
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other: Scalar) -> "LCNumber":
        return self._coerce(other) * self.inv()

    def pow_int(self, k: int, depth: int = DEFAULT_DEPTH) -> "LCNumber":
        """Integer power: exact repeated squaring for k >= 0, else a series."""
        _exact(k, (int,))
        if k < 0:
            return self.pow_rational(k, depth)
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return LCNumber.from_rational(1) if result is None else result

    def inv(self, depth: int = DEFAULT_DEPTH) -> "LCNumber":
        """Reciprocal series; see :meth:`pow_rational` for its truncation."""
        return self.pow_rational(-1, depth)

    def nth_root(self, n: int, depth: int = DEFAULT_DEPTH) -> "LCNumber":
        """Series b with b**n == self up to truncation; leading exponent /= n.

        The leading coefficient must have an exact rational n-th root.
        """
        _exact(n, (int,))
        if n <= 0:
            raise RootIndexError("root index must be a positive integer")
        return self.pow_rational(Fraction(1, n), depth)

    def pow_rational(self, alpha: Rational, depth: int = DEFAULT_DEPTH) -> "LCNumber":
        """self^(p/q) for alpha = p/q, as c0^(p/q) * eps^(lam*p/q) * (1 + u)^alpha.

        The leading coefficient c0^p must have an exact rational q-th root.
        Exact for monomials with unbounded truncation; otherwise the result is
        truncated after ``depth`` exponent steps beyond the leading exponent
        (a step is the gcd granularity of the operand's exponents), or sooner
        if the operand's own truncation gives out first.  Unlike
        :meth:`pow_int`, a positive integer alpha is truncated as well.  A depth
        that is not an ``int`` of at least 1 raises InvalidArgumentError.
        """
        if type(depth) is not int:
            raise InvalidArgumentError(f"depth must be an int, got {type(depth).__name__}")
        if depth < 1:
            raise InvalidArgumentError(f"depth must be at least 1, got {depth}")
        alpha = Fraction(_exact(alpha))
        p, q = alpha.numerator, alpha.denominator
        if not self.terms:
            if self.trunc is None:
                if p < 0:
                    raise ZeroDivisionLCError("inverse of zero")
                return LCNumber()
            what = "inverse" if p < 0 else "root"
            raise UndecidableError(
                f"operand is zero up to O(eps^({abs(p) * self.trunc})); {what} undecidable"
            )
        lam, c0 = self.terms[0]
        r0 = c0**p if q == 1 else rational_nth_root(c0**p, q)
        mu = lam * alpha
        rel_known = None if self.trunc is None else self.trunc - lam
        if len(self.terms) == 1:
            return LCNumber._canon([(mu, r0)], None if rel_known is None else mu + rel_known)
        step = self.terms[1][0] - lam
        for e, _ in self.terms[2:]:
            step = _frac_gcd(step, e - lam)
        bound = _min_trunc(depth * step, rel_known)
        # u = sum a_j * eps^(j*step); the terms at or above the bound never matter.
        rel = [(int((e - lam) / step), c / c0) for e, c in self.terms[1:] if e - lam < bound]
        g = _binomial_series(rel, alpha, ceil(bound / step))
        (m, dm), (s, ds) = mu.as_integer_ratio(), step.as_integer_ratio()  # mu + k*step
        terms = [(Fraction(m * ds + k * s * dm, dm * ds), r0 * c) for k, c in enumerate(g) if c]
        return LCNumber._make(tuple(terms), mu + bound)

    def sqrt(self, depth: int = DEFAULT_DEPTH) -> "LCNumber":
        return self.nth_root(2, depth)

    # -- order and reduction ----------------------------------------------

    def compare(self, other: Scalar) -> Comparison:
        """Total order by the sign of the leading coefficient of the difference.

        EQ only for an exactly-zero difference; a difference that is zero up
        to a bounded truncation is undecidable.
        """
        d = self - other
        if d.terms:
            return Comparison.GT if d.terms[0][1] > 0 else Comparison.LT
        if d.trunc is None:
            return Comparison.EQ
        raise UndecidableError(
            f"difference is zero up to O(eps^({d.trunc})); comparison undecidable"
        )

    def __lt__(self, other: Scalar) -> bool:
        return self.compare(other) is Comparison.LT

    def __le__(self, other: Scalar) -> bool:
        return self.compare(other) is not Comparison.GT

    def __gt__(self, other: Scalar) -> bool:
        return self.compare(other) is Comparison.GT

    def __ge__(self, other: Scalar) -> bool:
        return self.compare(other) is not Comparison.LT

    def __eq__(self, other) -> bool:
        # Canonical-form equality: same terms and same truncation order; a bool is its int.
        if isinstance(other, (int, Fraction)):
            other = LCNumber.from_rational(Fraction(other))
        if not isinstance(other, LCNumber):
            return NotImplemented
        return self.terms == other.terms and self.trunc == other.trunc

    def __hash__(self) -> int:
        return hash((self.terms, self.trunc))

    def st(self) -> Fraction:
        """Standard part (shadow): the unique rational infinitely close to self.

        Defined for limited numbers whose truncation order exceeds 0.
        """
        if self.terms and self.terms[0][0] < 0:
            raise UnlimitedError("standard part of an unlimited number")
        if self.trunc is not None and self.trunc <= 0:
            raise UndecidableError(
                f"truncation order {self.trunc} <= 0 hides the standard part"
            )
        return self.coefficient(0)

    def tlh(self) -> "LCNumber":
        """Keep only the dominant (lowest-exponent) term; discard the rest.

        This is the reduction that turns ``a + dx`` into ``a`` and
        ``dx + ddy`` into ``dx``.
        """
        if not self.terms:
            if self.trunc is None:
                raise ZeroInputError("no dominant term in zero")
            raise UndecidableError(
                f"zero up to O(eps^({self.trunc})); dominant term unknown"
            )
        return LCNumber([self.terms[0]])

    def is_infinitesimal(self) -> bool:
        """True when |self| is smaller than every positive rational (0 included)."""
        if self.terms:
            return self.terms[0][0] > 0
        if self.trunc is None:
            return True
        if self.trunc > 0:
            return True
        raise UndecidableError(
            f"zero up to O(eps^({self.trunc})); classification undecidable"
        )

    def is_limited(self) -> bool:
        """True when self has no unlimited (negative-exponent) part."""
        if self.terms and self.terms[0][0] < 0:
            return False
        if self.trunc is not None and self.trunc <= 0:
            raise UndecidableError(
                f"terms below eps^(0) may hide behind O(eps^({self.trunc}))"
            )
        return True

    def is_close_to(self, other: Scalar) -> bool:
        """Infinite closeness: the difference is infinitesimal."""
        return (self - other).is_infinitesimal()

    def order_class(self) -> OrderClass:
        if self.terms:
            q, c = self.terms[0]
            return OrderClass(q, 1 if c > 0 else -1)
        if self.trunc is None:
            return OrderClass(Fraction(0), 0)
        raise UndecidableError(
            f"zero up to O(eps^({self.trunc})); order class undecidable"
        )

    # -- canonical text form ----------------------------------------------

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"LCNumber('{render(self)}')"

    @classmethod
    def parse(cls, src: str) -> "LCNumber":
        return parse(src)


#: The positive infinitesimal generator.
EPS = LCNumber.monomial(1, 1)
ZERO = LCNumber()
ONE = LCNumber.from_rational(1)


# ---------------------------------------------------------------------------
# Canonical text form: terms ascending by exponent joined by " + " / " - ",
# each term "c", "c*eps" or "c*eps^(p/q)", with a trailing " + O(eps^(T))"
# for a bounded truncation order.  Polynomials print by the same signed sum.
# ---------------------------------------------------------------------------


def _signed_sum(summands: Iterable[tuple[bool, str]]) -> str:
    """``(negative, text)`` summands as ``a - b + c``, a leading ``-`` for a negative
    first summand, and ``0`` when there are none."""
    text = "".join(f" - {t}" if negative else f" + {t}" for negative, t in summands)
    return "-" + text[3:] if text[:3] == " - " else text[3:] or "0"


def _summand(coeff: Rational, name: str) -> tuple[bool, str]:
    """The summand ``coeff*name`` as a ``(negative, text)`` pair; ``name`` is empty
    for a constant, and a coefficient of magnitude 1 is left out."""
    mag = abs(coeff)
    return coeff < 0, str(mag) if not name else name if mag == 1 else f"{mag}*{name}"


def render(a: LCNumber) -> str:
    summands = [_summand(c, "" if q == 0 else "eps" if q == 1 else f"eps^({q})")
                for q, c in a.terms]
    if a.trunc is not None:
        summands.append((False, f"O(eps^({a.trunc}))"))
    return _signed_sum(summands)


def poly_text(pairs: Iterable[tuple[Rational, Rational]], variable: str) -> str:
    """A polynomial from ``(power, coefficient)`` pairs in display order, e.g.
    ``1 - 2*n + n^3``; zero coefficients are left out."""
    return _signed_sum(
        _summand(c, "" if power == 0 else variable if power == 1 else f"{variable}^{power}")
        for power, c in pairs if c != 0
    )


class _Cursor:
    """Token cursor shared by the number and the expression grammar.

    A grammar subclass supplies ``TOKEN_RE``, one group per token kind named
    in ``KINDS`` and a final ``(\\S)`` group for any other character.  Tokens
    are ``(kind, text, offset)``; the minus sign U+2212 reads as ``-``.  A digit
    run longer than ``sys.get_int_max_str_digits()`` allows is a ParseError.
    """

    TOKEN_RE: re.Pattern
    KINDS: tuple[str, ...]

    def __init__(self, src: str):
        self.src = src
        self.tokens = []
        cap = getattr(sys, "get_int_max_str_digits", int)()  # 0 where Python has no cap
        for m in self.TOKEN_RE.finditer(src.replace("−", "-")):
            if m.lastindex > len(self.KINDS):
                raise ParseError(f"unexpected character {m.group()!r}", m.start())
            text = m.group()
            if 0 < cap < len(text) and text[0].isdigit() and max(map(len, text.split("."))) > cap:
                raise ParseError(f"number has more than {cap} digits", m.start())
            self.tokens.append((self.KINDS[m.lastindex - 1], text, m.start()))
        self.i = 0

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[1] == text

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.src))
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok[1] != text:
            raise ParseError(f"expected {text!r}, got {tok[1]!r}", tok[2])


class _NumberParser(_Cursor):
    TOKEN_RE = re.compile(r"(\d+)|(eps)|(O)|([+\-*^()/])|(\S)")
    KINDS = ("int", "eps", "O", "op")

    def fraction(self) -> Fraction:
        tok = self.next()
        if tok[0] != "int":
            raise ParseError(f"expected a number, got {tok[1]!r}", tok[2])
        if not self.at("/"):
            return Fraction(int(tok[1]))
        self.next()
        den = self.next()
        if den[0] != "int":
            raise ParseError("expected a denominator", den[2])
        if int(den[1]) == 0:
            raise ParseError("zero denominator", den[2])
        return Fraction(int(tok[1]), int(den[1]))

    def eps_part(self) -> Fraction:
        """``eps`` with an optional exponent, bare or in parentheses."""
        self.expect("eps")
        if not self.at("^"):
            return Fraction(1)
        self.next()
        paren = self.at("(")
        if paren:
            self.next()
        negate = self.at("-")
        if negate:
            self.next()
        val = -self.fraction() if negate else self.fraction()
        if paren:
            self.expect(")")
        return val

    def term(self) -> tuple[Optional[Fraction], Fraction]:
        """Returns (exponent, coefficient); exponent None flags an O() tail."""
        if self.peek() is None:
            raise ParseError("expected a term", len(self.src))
        if self.at("O"):
            self.next()
            self.expect("(")
            exp = self.eps_part()
            self.expect(")")
            return None, exp
        if self.at("eps"):
            return self.eps_part(), Fraction(1)
        coeff = self.fraction()
        if self.at("*"):
            self.next()
        elif not self.at("eps"):
            return Fraction(0), coeff
        return self.eps_part(), coeff

    def parse(self) -> LCNumber:
        terms: list[tuple[Fraction, Fraction]] = []
        minus = self.next() if self.at("-") else None
        while True:
            exp, coeff = self.term()
            if exp is None:
                if minus is not None:
                    raise ParseError("truncation marker cannot be negated", minus[2])
                if self.peek() is not None:
                    raise ParseError("truncation marker must come last", self.peek()[2])
                return LCNumber(terms, coeff)
            terms.append((exp, -coeff if minus is not None else coeff))
            tok = self.peek()
            if tok is None:
                return LCNumber(terms)
            if tok[1] not in "+-":
                raise ParseError(f"expected '+' or '-', got {tok[1]!r}", tok[2])
            self.next()
            minus = tok if tok[1] == "-" else None


def parse(src: str) -> LCNumber:
    """Parse the canonical text form (with optional whitespace)."""
    if not src.strip():
        raise ParseError("empty number literal", 0)
    return _NumberParser(src).parse()
