"""Exact arithmetic on an infinitesimal-enriched ordered field.

An :class:`LCNumber` is a finite, truncated formal series

    c_1 * eps^(q_1) + c_2 * eps^(q_2) + ... + O(eps^(T))

in a fixed positive infinitesimal ``eps``, with exact rational coefficients
``c_i`` and exact rational exponents ``q_1 < q_2 < ...``.  A *larger* exponent
means a *smaller* magnitude: ``eps^2`` is infinitely smaller than ``eps``, and
``eps^(-1)`` is unlimited (infinite).  The truncation order ``T`` is either a
rational bound (all exponents ``>= T`` are unknown) or ``None``, meaning the
stored terms are the whole number.

The stored form is integer data on one lattice (1/D)Z of exponents.  D is
the least common denominator of the exponents and the truncation order (1
when there are none).  Each term is a triple ``(e, n, d)`` for
``(n/d)*eps^(e/D)``, with ``n/d`` reduced and ``d > 0``, ascending in e; the
truncation order is the integer ``T*D``, or ``None``.  So equal values are
stored identically.  Arithmetic, comparison and the text form work on this
form.  Only roots refine D; operands on two lattices meet on their lcm, each
rescaled by an integer factor.  ``terms`` (``(exponent, coefficient)`` pairs
of ``Fraction``) and ``trunc`` (a ``Fraction`` or ``None``) are read-only
views, built from the stored form when read.

Values are immutable; every operation returns a fresh canonical value.  All
arithmetic is exact — there is no floating point anywhere in this module.
"""

from __future__ import annotations

import enum
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd, isqrt, lcm
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

#: Largest k for which :meth:`LCNumber.pow_int` expands an exact sum of two or more
#: terms.  The k-th power has about k times the terms, each with about k times the
#: digits, so each doubling of k costs about ten times more: (10 + eps)^1024 took
#: 0.42 s and (10 + eps)^2048 5.2 s (x86-64, Python 3.11).
MAX_EXACT_POWER = 1000


class Comparison(enum.Enum):
    LT = -1
    EQ = 0
    GT = 1


@dataclass(frozen=True, slots=True)
class OrderClass:
    """Leading order of magnitude: a leading exponent plus a sign.

    Two nonzero numbers with distinct leading exponents are incommensurable:
    no finite multiple of the smaller-order one ever exceeds the other.
    """

    leading_exponent: Fraction
    sign: int  # -1, 0, or +1

    def __repr__(self) -> str:
        return f"OrderClass(exponent={rational_text(self.leading_exponent)}, sign={self.sign:+d})"


def _min_trunc(a, b):
    """The smaller of two truncation orders, where None is no bound."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _int_nth_root(x: int, n: int) -> Optional[int]:
    """Exact n-th root of a nonnegative integer, or None."""
    if x in (0, 1):
        return x
    if n >= x.bit_length():  # then 1 < x^(1/n) < 2
        return None
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


def rational_nth_root(c: Fraction, n: int, p: int = 1) -> Fraction:
    """Exact rational n-th root of c**p, or raise; an error names c**p.  For p prime to n,
    c**p is an n-th power exactly when c is one, so the root is taken of c first."""
    if n == 1:
        return c**p
    if c < 0 and n % 2 == 0:
        raise NegativeRootError(f"even root of negative coefficient {_power_text(c, p)}")
    num = _int_nth_root(abs(c.numerator), n)
    den = _int_nth_root(c.denominator, n)
    if num is None or den is None:
        text = _power_text(abs(c), p)
        raise NotAnNthPowerError(f"{text} has no rational {rational_text(n)}-th root")
    return Fraction(-num if c < 0 else num, den) ** p


def _power_text(c: Fraction, p: int) -> str:
    """c**p as text, or ``(c)^(p)`` when c**p is past the digit limit."""
    try:
        return rational_text(c**p)
    except InvalidArgumentError:
        return f"({rational_text(c)})^({rational_text(p)})"


def _binomial_series(rel: list, p: int, q: int, n: int, g0: tuple) -> list:
    """Coefficients g_0..g_(n-1) of g0 * (1 + u)^(p/q), u = sum of a_j * x^j, as
    reduced ``(numerator, denominator)`` pairs.

    ``rel`` lists ``(j, numerator, denominator)`` of each nonzero a_j, j >= 1
    ascending.  J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7) costs
    O(n * len(rel)): g_k = (1/k) * sum_j ((alpha + 1) * j - k) * a_j * g_(k-j).
    It is linear in g, so the series starts from g_0 = g0 and needs no final
    scaling.  Each sum runs on integers over the lcm L of its terms'
    denominators, so g_k = s / (q*k*L) for an integer s.
    """
    g = [g0]
    for k in range(1, n):
        s, L = 0, 1  # the sum so far is s / L
        for j, a, b in rel:
            if j > k:
                break
            c, d = g[k - j]
            # (alpha + 1) * j - k == ((p + q) * j - q * k) / q
            t, d = ((p + q) * j - q * k) * a * c, b * d
            if d == L:
                s += t
            else:
                m = lcm(L, d)
                s, L = s * (m // L) + t * (m // d), m
        d = q * k * L
        t = gcd(s, d)
        g.append((s // t, d // t))
    return g[:n]  # nothing for n < 1


def _rescale(ints: tuple, T: Optional[int], s: int) -> tuple:
    """Terms and truncation order moved to a lattice s times finer."""
    if s == 1:
        return ints, T
    return tuple([(e * s, n, d) for e, n, d in ints]), None if T is None else T * s


def _exact(x, kinds: tuple = (int, Fraction)):
    """x if it is one of ``kinds`` and not a bool; a float, say, is refused, never rounded."""
    if isinstance(x, kinds) and type(x) is not bool:
        return x
    names = " or ".join(kind.__name__ for kind in kinds)
    raise CoercionError(f"expected {names}, got {type(x).__name__}")


class LCNumber:
    """A truncated series in the infinitesimal ``eps`` with rational data.

    Stored on the lattice (1/D)Z (see the module docstring): ``_D`` is D,
    ``_ints`` the ascending ``(e, n, d)`` triples, ``_T`` the truncation order
    over D or None.
    """

    __slots__ = ("_D", "_ints", "_T")

    def __new__(
        cls,
        terms: Iterable[tuple[Rational, Rational]] = (),
        trunc: Optional[Rational] = None,
    ) -> "LCNumber":
        acc: dict = {}
        for q, c in terms:
            q, c = _exact(q), _exact(c)
            acc[q] = acc[q] + c if q in acc else c
        if trunc is not None:
            trunc = _exact(trunc)
        D = lcm(*[q.denominator for q in acc], 1 if trunc is None else trunc.denominator)
        T = None if trunc is None else trunc.numerator * (D // trunc.denominator)
        ints = sorted((q.numerator * (D // q.denominator), c.numerator, c.denominator)
                      for q, c in acc.items() if c)
        if T is not None:
            ints = ints[: bisect_left(ints, (T,))]
        return cls._canon(D, tuple(ints), T)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, D: int, ints: tuple, T: Optional[int]) -> "LCNumber":
        """Trusted: the stored form as it is, already on its least lattice."""
        # Kernel tuples are built from lists: one built from a generator is resized after
        # allocation, which fills CPython's per-size tuple free lists (~3 MB more peak RSS).
        x = object.__new__(cls)
        x._D = D
        x._ints = ints
        x._T = T
        return x

    @classmethod
    def _canon(cls, D: int, ints: tuple, T: Optional[int]) -> "LCNumber":
        """Trusted: ``ints`` are ascending ``(e, n, d)`` triples on (1/D)Z below T, each
        n/d nonzero and reduced with d > 0; D is reduced to the least common denominator."""
        if D > 1:
            g = gcd(D, T or 0, *[t[0] for t in ints])
            if g > 1:
                D //= g
                ints = tuple([(e // g, n, d) for e, n, d in ints])
                T = None if T is None else T // g
        return cls._make(D, ints, T)

    @classmethod
    def _constant(cls, r: Rational) -> "LCNumber":
        return cls._make(1, ((0, r.numerator, r.denominator),) if r else (), None)

    @classmethod
    def from_rational(cls, r: Rational) -> "LCNumber":
        return cls._constant(_exact(r))

    @classmethod
    def monomial(cls, coeff: Rational, exponent: Rational) -> "LCNumber":
        return cls([(exponent, coeff)])

    def __reduce__(self):
        return LCNumber._make, (self._D, self._ints, self._T)

    # -- basic structure ---------------------------------------------------

    @property
    def terms(self) -> tuple:
        """The known terms as ascending ``(exponent, coefficient)`` Fraction pairs."""
        D = self._D
        return tuple([(Fraction(e, D), Fraction(n, d)) for e, n, d in self._ints])

    @property
    def trunc(self) -> Optional[Fraction]:
        """The truncation order as a Fraction, or None for a number known exactly."""
        return None if self._T is None else Fraction(self._T, self._D)

    @property
    def has_terms(self) -> bool:
        """At least one known term; unlike ``bool(terms)``, builds no view."""
        return bool(self._ints)

    @property
    def is_zero(self) -> bool:
        """Exactly zero: no terms and no truncation bound hiding any."""
        return not self._ints and self._T is None

    def _lead(self, undecidable: str, known_above: Optional[Rational] = None):
        """The leading term as integers ``(e, n, d)``: exponent e over the lattice
        denominator, coefficient n/d.  None for an exact zero, or for a term-less
        value whose truncation order T exceeds ``known_above``.  Otherwise no known
        term decides: UndecidableError, with T filled in for ``{T}`` in ``undecidable``."""
        if self._ints:
            return self._ints[0]
        if self._T is None or (known_above is not None and self._T > known_above * self._D):
            return None
        raise UndecidableError(undecidable.format(T=rational_text(self.trunc)))

    @property
    def leading_exponent(self) -> Fraction:
        """Exponent of the dominant term; 0 for the zero element."""
        lead = self._lead("zero up to O(eps^({T})); leading exponent undecidable")
        return Fraction(0) if lead is None else Fraction(lead[0], self._D)

    @property
    def leading_coefficient(self) -> Fraction:
        """Coefficient of the dominant term; 0 for the zero element."""
        lead = self._lead("zero up to O(eps^({T})); leading coefficient undecidable")
        return Fraction(0) if lead is None else Fraction(lead[1], lead[2])

    def coefficient(self, exponent: Rational) -> Fraction:
        q = _exact(exponent) * self._D
        for e, n, d in self._ints:
            if e == q:
                return Fraction(n, d)
        return Fraction(0)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(x: Scalar) -> "LCNumber":
        return x if isinstance(x, LCNumber) else LCNumber.from_rational(x)

    def __add__(self, other: Scalar) -> "LCNumber":
        b = self._coerce(other)
        D, x, Ta, y, Tb = self._D, self._ints, self._T, b._ints, b._T
        if b._D != D:
            L = lcm(D, b._D)
            (x, Ta), (y, Tb), D = _rescale(x, Ta, L // D), _rescale(y, Tb, L // b._D), L
        T = _min_trunc(Ta, Tb)
        if T is not None:
            x, y = x[: bisect_left(x, (T,))], y[: bisect_left(y, (T,))]
        # One merge of the two ascending term tuples.
        out, i, j = [], 0, 0
        while i < len(x) and j < len(y):
            a, c = x[i], y[j]
            if a[0] == c[0]:
                (_, n, d), (_, m, f) = a, c
                n, d = (n + m, d) if d == f else (n * f + m * d, d * f)
                if n:
                    g = gcd(n, d)
                    out.append((a[0], n // g, d // g))
                i, j = i + 1, j + 1
            elif a[0] < c[0]:
                out.append(a)
                i += 1
            else:
                out.append(c)
                j += 1
        return LCNumber._canon(D, tuple(out) + x[i:] + y[j:], T)

    __radd__ = __add__

    def __neg__(self) -> "LCNumber":
        return LCNumber._make(self._D, tuple([(e, -n, d) for e, n, d in self._ints]), self._T)

    def __sub__(self, other: Scalar) -> "LCNumber":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "LCNumber":
        return self._coerce(other) - self

    def __mul__(self, other: Scalar) -> "LCNumber":
        a, b = self, self._coerce(other)
        if a.is_zero or b.is_zero:
            return LCNumber._make(1, (), None)
        # An exact constant factor only scales the coefficients.
        if a._T is None and len(a._ints) == 1 and not a._ints[0][0]:
            a, b = b, a
        if b._T is None and len(b._ints) == 1 and not b._ints[0][0]:
            (_, c, k), out = b._ints[0], []
            for e, n, d in a._ints:
                n, d = n * c, d * k
                g = gcd(n, d)
                out.append((e, n // g, d // g))
            return LCNumber._make(a._D, tuple(out), a._T)
        D, x, Ta, y, Tb = a._D, a._ints, a._T, b._ints, b._T
        if b._D != D:
            L = lcm(D, b._D)
            (x, Ta), (y, Tb), D = _rescale(x, Ta, L // D), _rescale(y, Tb, L // b._D), L
        # O(eps^Ta) times a factor whose exponents are all >= lb contributes
        # unknowns from eps^(Ta+lb) on; a term-less factor's lb is its own T.
        lo_a = x[0][0] if x else Ta
        lo_b = y[0][0] if y else Tb
        bound = None
        if Ta is not None:
            bound = Ta + lo_b
        if Tb is not None:
            bound = _min_trunc(bound, Tb + lo_a)
        # With no bound, both factors have terms.
        top = x[-1][0] + y[-1][0] + 1 if bound is None else bound
        # A sum's denominator is the lcm of its own products' ones, reduced once at the end.
        prod: dict = {}
        for e, na, da in x:
            for f, nb, db in y:
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
        out = []
        for k in sorted(prod):
            n, d = prod[k]
            if n:
                g = gcd(n, d)
                out.append((k, n // g, d // g))
        return LCNumber._canon(D, tuple(out), bound)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "LCNumber":
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other: Scalar) -> "LCNumber":
        return self._coerce(other) * self.inv()

    def pow_int(self, k: int, depth: int = DEFAULT_DEPTH) -> "LCNumber":
        """Integer power: exact repeated squaring for k >= 0, else a series.

        An exact operand with two or more terms raises InvalidArgumentError for k
        above :data:`MAX_EXACT_POWER`, before any multiplication."""
        _exact(k, (int,))
        if k < 0:
            return self.pow_rational(k, depth)
        if k > MAX_EXACT_POWER and self._T is None and len(self._ints) > 1:
            limit = f"{MAX_EXACT_POWER}, the limit for an exact sum"
            raise InvalidArgumentError(f"exponent {rational_text(k)} is above {limit}")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return LCNumber._constant(1) if result is None else result

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

        The leading coefficient c0 must have an exact rational q-th root.
        Exact for monomials with unbounded truncation; otherwise the result is
        truncated after ``depth`` exponent steps beyond the leading exponent
        (a step is the gcd granularity of the operand's exponents), or sooner
        if the operand's own truncation gives out first.  Unlike
        :meth:`pow_int`, a positive integer alpha is truncated as well.  alpha = 0
        gives exactly 1 for every operand.  A depth that is not an ``int`` of at
        least 1 raises InvalidArgumentError.
        """
        if type(depth) is not int:
            raise InvalidArgumentError(f"depth must be an int, got {type(depth).__name__}")
        if depth < 1:
            raise InvalidArgumentError(f"depth must be at least 1, got {rational_text(depth)}")
        alpha = Fraction(_exact(alpha))
        p, q = alpha.numerator, alpha.denominator
        if not p:
            return LCNumber._constant(1)
        what = "inverse" if p < 0 else "root"
        lead = self._lead("operand is zero up to O(eps^({T})); " + what + " undecidable")
        if lead is None:
            if p < 0:
                raise ZeroDivisionLCError("inverse of zero")
            return LCNumber._make(1, (), None)
        # On the lattice (1/(D*q))Z, the result's leading exponent lam/D * p/q is lam*p.
        (lam, cn, cd), ints, T = lead, self._ints, self._T
        r0 = rational_nth_root(Fraction(cn, cd), q, p)
        mu, D = lam * p, self._D * q
        if len(ints) == 1:
            term = ((mu, r0.numerator, r0.denominator),)
            return LCNumber._canon(D, term, None if T is None else mu + (T - lam) * q)
        # Offsets from lam, the step and the bound are on the operand's lattice.
        step = gcd(*[e - lam for e, _, _ in ints[1:]])
        bound = depth * step if T is None else min(depth * step, T - lam)
        # u = sum a_j * eps^(j*step), a_j = c_j / c0; the terms at or above the bound never matter.
        rel = []
        for e, n, d in ints[1:]:
            if e - lam >= bound:
                break
            n, d = n * cd, d * cn
            g = gcd(n, d) if d > 0 else -gcd(n, d)
            rel.append(((e - lam) // step, n // g, d // g))
        series = _binomial_series(rel, p, q, -(-bound // step), (r0.numerator, r0.denominator))
        out = [(mu + k * step * q, n, d) for k, (n, d) in enumerate(series) if n]
        return LCNumber._canon(D, tuple(out), mu + bound * q)

    def sqrt(self, depth: int = DEFAULT_DEPTH) -> "LCNumber":
        return self.nth_root(2, depth)

    # -- order and reduction ----------------------------------------------

    def compare(self, other: Scalar) -> Comparison:
        """Total order by the sign of the leading coefficient of the difference.

        EQ only for an exactly-zero difference; a difference that is zero up
        to a bounded truncation is undecidable.
        """
        d = self - other
        lead = d._lead("difference is zero up to O(eps^({T})); comparison undecidable")
        if lead is None:
            return Comparison.EQ
        return Comparison.GT if lead[1] > 0 else Comparison.LT

    def __lt__(self, other: Scalar) -> bool:
        return self.compare(other) is Comparison.LT

    def __le__(self, other: Scalar) -> bool:
        return self.compare(other) is not Comparison.GT

    def __gt__(self, other: Scalar) -> bool:
        return self.compare(other) is Comparison.GT

    def __ge__(self, other: Scalar) -> bool:
        return self.compare(other) is not Comparison.LT

    def __eq__(self, other) -> bool:
        # Canonical-form equality: same stored form; a bool is its int.
        if isinstance(other, (int, Fraction)):
            other = LCNumber._constant(other)
        if not isinstance(other, LCNumber):
            return NotImplemented
        return self._ints == other._ints and self._T == other._T and self._D == other._D

    def __hash__(self) -> int:
        # An exact constant equals its Fraction, so it hashes as one.
        x = self._ints
        if self._T is None and (not x or len(x) == 1 and x[0][0] == 0):
            return hash(Fraction(x[0][1], x[0][2])) if x else 0
        return hash((self._D, x, self._T))

    def st(self) -> Fraction:
        """Standard part (shadow): the unique rational infinitely close to self.

        Defined for limited numbers whose truncation order exceeds 0.
        """
        lead = self._lead("truncation order {T} <= 0 hides the standard part", 0)
        if lead is None or lead[0] > 0:  # zero, up to a positive order or exactly, or infinitesimal
            return Fraction(0)
        if lead[0] < 0:
            raise UnlimitedError("standard part of an unlimited number")
        return Fraction(lead[1], lead[2])

    def tlh(self) -> "LCNumber":
        """Keep only the dominant (lowest-exponent) term; discard the rest.

        This is the reduction that turns ``a + dx`` into ``a`` and
        ``dx + ddy`` into ``dx``.
        """
        lead = self._lead("zero up to O(eps^({T})); dominant term unknown")
        if lead is None:
            raise ZeroInputError("no dominant term in zero")
        return LCNumber._canon(self._D, (lead,), None)

    def is_infinitesimal(self) -> bool:
        """True when |self| is smaller than every positive rational (0 included)."""
        lead = self._lead("zero up to O(eps^({T})); classification undecidable", 0)
        return lead is None or lead[0] > 0

    def is_limited(self) -> bool:
        """True when self has no unlimited (negative-exponent) part."""
        lead = self._lead("terms below eps^(0) may hide behind O(eps^({T}))", 0)
        return lead is None or lead[0] >= 0

    def is_close_to(self, other: Scalar) -> bool:
        """Infinite closeness: the difference is infinitesimal."""
        return (self - other).is_infinitesimal()

    def order_class(self) -> OrderClass:
        lead = self._lead("zero up to O(eps^({T})); order class undecidable")
        if lead is None:
            return OrderClass(Fraction(0), 0)
        return OrderClass(Fraction(lead[0], self._D), 1 if lead[1] > 0 else -1)

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


def _ratio(n: int, d: int) -> str:
    """n/d as ``str(Fraction(n, d))`` prints it, for a reduced pair with d > 0.  The one place
    an int becomes text: past the digit limit, InvalidArgumentError with CPython's message."""
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError as exc:
        raise InvalidArgumentError(str(exc)) from None


def rational_text(r: Rational) -> str:
    """``str(r)`` of an int or Fraction, through :func:`_ratio`."""
    return _ratio(r.numerator, r.denominator)


def _data_repr(value) -> str:
    """``repr(value)``, with an int or a Fraction, also one inside a tuple, printed
    through :func:`_ratio`."""
    if isinstance(value, Fraction):
        return f"Fraction({_ratio(value.numerator, 1)}, {_ratio(value.denominator, 1)})"
    if isinstance(value, tuple):
        return f"({', '.join(map(_data_repr, value))}{',' if len(value) == 1 else ''})"
    return _ratio(value, 1) if isinstance(value, int) else repr(value)


def _record_repr(self) -> str:
    shown = ", ".join(f"{f.name}={_data_repr(getattr(self, f.name))}" for f in fields(self))
    return f"{type(self).__qualname__}({shown})"


def record(cls):
    """``dataclass(frozen=True)`` with the repr a dataclass prints, but every field printed
    through :func:`_data_repr`, so that past the digit limit it raises InvalidArgumentError."""
    cls.__repr__ = _record_repr
    return dataclass(frozen=True, repr=False)(cls)


def _summand(n: int, d: int, name: str) -> tuple[bool, str]:
    """The summand ``(n/d)*name`` as a ``(negative, text)`` pair; ``name`` is empty
    for a constant, and a coefficient of magnitude 1 is left out."""
    mag = _ratio(abs(n), d)
    return n < 0, mag if not name else name if mag == "1" else f"{mag}*{name}"


def _over(e: int, D: int) -> str:
    """e/D as ``str(Fraction(e, D))`` prints it."""
    g = gcd(e, D)
    return _ratio(e // g, D // g)


def render(a: LCNumber) -> str:
    D = a._D
    summands = [_summand(n, d, "" if e == 0 else "eps" if e == D else f"eps^({_over(e, D)})")
                for e, n, d in a._ints]
    if a._T is not None:
        summands.append((False, f"O(eps^({_over(a._T, D)}))"))
    return _signed_sum(summands)


def poly_text(pairs: Iterable[tuple[Rational, Rational]], variable: str) -> str:
    """A polynomial from ``(power, coefficient)`` pairs in display order, e.g.
    ``1 - 2*n + n^3``; zero coefficients are left out."""
    return _signed_sum(
        _summand(c.numerator, c.denominator, "" if power == 0 else variable if power == 1
                 else f"{variable}^{rational_text(power)}")
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
    TOKEN_RE = re.compile(r"([0-9]+)|(eps)|(O)|([+\-*^()/])|(\S)")
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
