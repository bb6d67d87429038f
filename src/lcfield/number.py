"""Exact arithmetic on an infinitesimal-enriched ordered field.

An :class:`LCNumber` is a finite, truncated formal series

    c_1 * eps^(q_1) + c_2 * eps^(q_2) + ... + O(eps^(T))

in a fixed positive infinitesimal ``eps``, with exact rational coefficients
``c_i`` and exact rational exponents ``q_1 < q_2 < ...``.  A *larger* exponent
means a *smaller* magnitude: ``eps^2`` is infinitely smaller than ``eps``, and
``eps^(-1)`` is unlimited (infinite).  The truncation order ``T`` is either a
rational bound (all exponents ``>= T`` are unknown) or ``None``, meaning the
stored terms are the whole number.

The stored form ``(D, Q, ((e, n), ...), T)`` is integer data on one lattice
(1/D)Z of exponents, over one common denominator Q of the coefficients.  D
is the least common denominator of the exponents and the truncation order
(1 when there are none).  Each term is a pair ``(e, n)`` for
``(n/Q)*eps^(e/D)``, with n nonzero, ascending in e.  Q is positive, Q and
the numerators have no common factor, and Q is 1 when there are no terms.
The truncation order is the integer ``T*D``, or ``None``.  So equal values
are stored identically.  Arithmetic, comparison and the text form work on
this form: ``+`` meets two denominators by scaling each numerator list with
a cofactor of their lcm, ``*`` is an integer convolution over Qa*Qb, and each
ends with one content gcd.  Only roots refine D; operands on two lattices
meet on their lcm, each rescaled by an integer factor.  ``terms``
(``(exponent, coefficient)`` pairs of ``Fraction``) and ``trunc`` (a
``Fraction`` or ``None``) are read-only views, built from the stored form
when read.

Values are immutable; every operation returns a fresh canonical value.  All
arithmetic is exact — there is no floating point anywhere in this module.
"""

from __future__ import annotations

import enum
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
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
    c**p is an n-th power exactly when c is one, so the root is taken of c first.  Each
    power goes through :func:`_refuse_huge_power` first."""
    if n == 1:
        _refuse_huge_power(c.numerator, c.denominator, p)
        return c**p
    if c < 0 and n % 2 == 0:
        raise NegativeRootError(f"even root of negative coefficient {_power_text(c, p)}")
    num = _int_nth_root(abs(c.numerator), n)
    den = _int_nth_root(c.denominator, n)
    if num is None or den is None:
        text = _power_text(abs(c), p)
        raise NotAnNthPowerError(f"{text} has no rational {rational_text(n)}-th root")
    _refuse_huge_power(num, den, p)
    return Fraction(-num if c < 0 else num, den) ** p


def _digit_limit() -> int:
    """CPython's limit on int-string conversion, in digits; 0 where Python has none."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _digit_limit_error() -> InvalidArgumentError:
    """The error for text past the digit limit, worded on every Python as 3.11 words it."""
    return InvalidArgumentError(f"Exceeds the limit ({_digit_limit()} digits) for integer string "
                                "conversion; use sys.set_int_max_str_digits() to increase the limit")


def _refuse_huge_power(n: int, d: int, p: int) -> None:
    """Raise :func:`_digit_limit_error` before (n/d)**p is computed when |p| >= 2 and
    |p|*(b-1) >= 4L, with b the larger bit length of n/d in lowest terms and L the digit
    limit: a part of the power is then 2^(4L) > 10^L or more.  As b only shrinks in lowest
    terms, n and d as given clear most calls without a gcd."""
    if -2 < p < 2 or not (limit := _digit_limit()):
        return
    bits = -(-4 * limit // abs(p)) + 1  # |p|*(b-1) >= 4L exactly when b >= bits
    if max(n.bit_length(), d.bit_length()) >= bits:
        g = gcd(n, d)
        if max((n // g).bit_length(), (d // g).bit_length()) >= bits:
            raise _digit_limit_error()


def _power_text(c: Fraction, p: int) -> str:
    """c**p as text, or ``(c)^(p)`` when c**p is past the digit limit; a power that
    :func:`_refuse_huge_power` refuses is not computed."""
    try:
        _refuse_huge_power(c.numerator, c.denominator, p)
        return rational_text(c**p)
    except InvalidArgumentError:
        return f"({rational_text(c)})^({rational_text(p)})"


def _binomial_series(rel: list, n0: int, p: int, q: int, n: int, r0: Fraction) -> tuple:
    """Coefficients g_0..g_(n-1) of r0 * (1 + u)^(p/q), u = sum of (n_j/n0) * x^j, as
    ``(Q, [H_0, ..., H_(n-1)])`` with g_k = H_k/Q; ``rel`` lists ``(j, n_j)`` of each
    nonzero term, j >= 1 ascending.

    With m = |n0| / gcd(n0, every n_j), each a_j = n_j/n0 is N_j/m, and the k-th
    coefficient of (1 + u)^(p/q) has a denominator dividing q^(2k) * m^k, because
    q^(2i) * binom(p/q, i) is an integer.  So Q = den(r0) * (q^2 * m)^(n-1) is a common
    denominator, fixed before the loop.  J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2,
    4.7), g_k = (1/k) * sum_j ((alpha + 1) * j - k) * a_j * g_(k-j), then runs on the
    integers H_k with one exact division per k, in O(n * len(rel)) steps.
    """
    c = gcd(n0, *[t[1] for t in rel])
    c = c if n0 > 0 else -c  # n0 = c*m with m > 0
    qm = q * (n0 // c)
    scale = (q * qm) ** (n - 1) if n > 1 else 1
    # (alpha + 1) * j - k == ((p + q) * j - q * k) / q, times N_j = n_j / c
    steps = [(j, (p + q) * j * (nj // c), q * (nj // c)) for j, nj in rel]
    h = [r0.numerator * scale]
    for k in range(1, n):
        s = 0
        for j, a, b in steps:
            if j > k:
                break
            s += (a - k * b) * h[k - j]
        h.append(s // (qm * k))
    return r0.denominator * scale, h


def _rescale(ints: tuple, T: Optional[int], s: int, k: int = 1) -> tuple:
    """Terms and truncation order moved to a lattice s times finer, the numerators
    times k (over a denominator k times larger)."""
    if s == 1:
        return (ints if k == 1 else [(e, n * k) for e, n in ints]), T
    return [(e * s, n * k) for e, n in ints], None if T is None else T * s


def _exact(x, kinds: tuple = (int, Fraction)):
    """x if it is one of ``kinds`` and not a bool; a float, say, is refused, never rounded."""
    if isinstance(x, kinds) and type(x) is not bool:
        return x
    names = " or ".join(kind.__name__ for kind in kinds)
    raise CoercionError(f"expected {names}, got {type(x).__name__}")


@total_ordering
class LCNumber:
    """A truncated series in the infinitesimal ``eps`` with rational data.

    Stored on the lattice (1/D)Z over one denominator Q, as ``(D, Q, ((e, n), ...), T)``
    (see the module docstring): ``_D`` is D, ``_Q`` is Q, ``_ints`` the ascending
    ``(e, n)`` pairs, ``_T`` the truncation order over D or None.
    """

    __slots__ = ("_D", "_Q", "_ints", "_T")

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
        # Terms cut off by T may leave a factor of Q in every numerator; _canon divides it out.
        Q = lcm(*[c.denominator for c in acc.values()])
        ints = sorted((q.numerator * (D // q.denominator), c.numerator * (Q // c.denominator))
                      for q, c in acc.items() if c)
        if T is not None:
            ints = ints[: bisect_left(ints, (T,))]
        return cls._canon(D, Q, ints, T)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, D: int, Q: int, ints: tuple, T: Optional[int]) -> "LCNumber":
        """Trusted: the stored form as it is, already on its least lattice and in lowest terms."""
        # Kernel tuples are built from lists: one built from a generator is resized after
        # allocation, which fills CPython's per-size tuple free lists (~3 MB more peak RSS).
        x = object.__new__(cls)
        x._D = D
        x._Q = Q
        x._ints = ints
        x._T = T
        return x

    @classmethod
    def _canon(cls, D: int, Q: int, ints: list, T: Optional[int]) -> "LCNumber":
        """Trusted: ``ints`` are ascending ``(e, n)`` pairs on (1/D)Z below T, each n nonzero,
        over Q > 0.  Q and the numerators are divided by their content gcd(Q, *numerators),
        then :meth:`_least_lattice` reduces D."""
        if Q > 1:
            # Numerators from the last: a series' last coefficient usually has the largest
            # reduced denominator, so the running gcd shrinks at once, and math.gcd computes
            # nothing more once it is 1.
            g = gcd(Q, *[t[1] for t in reversed(ints)])
            if g > 1:
                Q //= g
                ints = [(e, n // g) for e, n in ints]
        return cls._least_lattice(D, Q, ints, T)

    @classmethod
    def _least_lattice(cls, D: int, Q: int, ints: list, T: Optional[int]) -> "LCNumber":
        """Trusted: as for :meth:`_canon`, with Q already prime to the numerators.  D is
        reduced to the least common denominator of the exponents and T."""
        if D > 1:
            g = gcd(D, T or 0, *[t[0] for t in ints])
            if g > 1:
                D //= g
                ints = [(e // g, n) for e, n in ints]
                T = None if T is None else T // g
        return cls._make(D, Q, tuple(ints), T)

    @classmethod
    def _constant(cls, r: Rational) -> "LCNumber":
        return cls._make(1, r.denominator, ((0, r.numerator),) if r else (), None)

    @classmethod
    def from_rational(cls, r: Rational) -> "LCNumber":
        return cls._constant(_exact(r))

    @classmethod
    def monomial(cls, coeff: Rational, exponent: Rational) -> "LCNumber":
        return cls([(exponent, coeff)])

    def __reduce__(self):
        return LCNumber._make, (self._D, self._Q, self._ints, self._T)

    # -- basic structure ---------------------------------------------------

    @property
    def terms(self) -> tuple:
        """The known terms as ascending ``(exponent, coefficient)`` Fraction pairs."""
        D, Q = self._D, self._Q
        return tuple([(Fraction(e, D), Fraction(n, Q)) for e, n in self._ints])

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
        """The leading term as stored, ``(e, n)``: exponent e over the lattice denominator,
        coefficient n/Q.  None for an exact zero, or for a term-less value whose truncation
        order T exceeds ``known_above``.  Otherwise no known term decides: UndecidableError,
        with T filled in for ``{T}`` in ``undecidable``."""
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
        return Fraction(0) if lead is None else Fraction(lead[1], self._Q)

    def coefficient(self, exponent: Rational) -> Fraction:
        q = _exact(exponent) * self._D
        for e, n in self._ints:
            if e == q:
                return Fraction(n, self._Q)
        return Fraction(0)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(x: Scalar) -> "LCNumber":
        return x if isinstance(x, LCNumber) else LCNumber.from_rational(x)

    def __add__(self, other: Scalar) -> "LCNumber":
        b = self._coerce(other)
        D, Q, x, Ta, y, Tb = self._D, self._Q, self._ints, self._T, b._ints, b._T
        if b._D != D or b._Q != Q:
            L, Q = lcm(D, b._D), lcm(Q, b._Q)
            x, Ta = _rescale(x, Ta, L // D, Q // self._Q)
            y, Tb = _rescale(y, Tb, L // b._D, Q // b._Q)
            D = L
        T = _min_trunc(Ta, Tb)
        if T is not None:
            x, y = x[: bisect_left(x, (T,))], y[: bisect_left(y, (T,))]
        # One merge of the two ascending term tuples; numerators over one Q add as integers.
        out, i, j = [], 0, 0
        while i < len(x) and j < len(y):
            a, c = x[i], y[j]
            if a[0] == c[0]:
                n = a[1] + c[1]
                if n:
                    out.append((a[0], n))
                i, j = i + 1, j + 1
            elif a[0] < c[0]:
                out.append(a)
                i += 1
            else:
                out.append(c)
                j += 1
        out += x[i:]
        out += y[j:]
        return LCNumber._canon(D, Q, out, T)

    __radd__ = __add__

    def __neg__(self) -> "LCNumber":
        return LCNumber._make(self._D, self._Q, tuple([(e, -n) for e, n in self._ints]), self._T)

    def __sub__(self, other: Scalar) -> "LCNumber":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "LCNumber":
        return self._coerce(other) - self

    def __mul__(self, other: Scalar) -> "LCNumber":
        a, b = self, self._coerce(other)
        if a._T is None and len(a._ints) == 1:  # an exact one-term factor goes second
            a, b = b, a
        D, x, Ta, y, Tb = a._D, a._ints, a._T, b._ints, b._T
        if (not x and Ta is None) or (not y and Tb is None):  # an exact zero factor
            return LCNumber._make(1, 1, (), None)
        if b._D != D:
            L = lcm(D, b._D)
            (x, Ta), (y, Tb), D = _rescale(x, Ta, L // D), _rescale(y, Tb, L // b._D), L
        if Tb is None and len(y) == 1:
            # An exact one-term factor c*eps^s only shifts the exponents and scales the
            # numerators; the part of the content that c shares with Qa is divided out first.
            (s, c), = y
            g = gcd(c, a._Q)
            out = [(e + s, n * (c // g)) for e, n in x]
            return LCNumber._canon(D, a._Q // g * b._Q, out, None if Ta is None else Ta + s)
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
        # The product's numerators over Qa*Qb are integer sums of numerator products.
        Q = a._Q * b._Q
        prod: dict = {}
        for e, na in x:
            for f, nb in y:
                k = e + f
                if k >= top:
                    break
                prod[k] = prod.get(k, 0) + na * nb
        out = [t for t in sorted(prod.items()) if t[1]]
        return LCNumber._canon(D, Q, out, bound)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "LCNumber":
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other: Scalar) -> "LCNumber":
        return self._coerce(other) * self.inv()

    def pow_int(self, k: int, depth: int = DEFAULT_DEPTH) -> "LCNumber":
        """Integer power: exact repeated squaring for k >= 0, else a series.

        Before any multiplication, InvalidArgumentError refuses k above :data:`MAX_EXACT_POWER`
        for an exact operand with two or more terms, then a leading coefficient whose k-th
        power :func:`_refuse_huge_power` refuses."""
        _exact(k, (int,))
        if k < 0:
            return self.pow_rational(k, depth)
        if k > MAX_EXACT_POWER and self._T is None and len(self._ints) > 1:
            limit = f"{MAX_EXACT_POWER}, the limit for an exact sum"
            raise InvalidArgumentError(f"exponent {rational_text(k)} is above {limit}")
        if self._ints:
            _refuse_huge_power(self._ints[0][1], self._Q, k)
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
            return LCNumber._make(1, 1, (), None)
        # On the lattice (1/(D*q))Z, the result's leading exponent lam/D * p/q is lam*p.
        (lam, n0), ints, T = lead, self._ints, self._T
        r0 = rational_nth_root(Fraction(n0, self._Q), q, p)
        mu, D = lam * p, self._D * q
        if len(ints) == 1:
            T = None if T is None else mu + (T - lam) * q
            return LCNumber._least_lattice(D, r0.denominator, [(mu, r0.numerator)], T)
        # Offsets from lam, the step and the bound are on the operand's lattice.
        step = gcd(*[e - lam for e, _ in ints[1:]])
        bound = depth * step if T is None else min(depth * step, T - lam)
        # u = sum a_j * eps^(j*step), a_j = c_j / c0 = n_j / n_0 over the one Q; the terms at
        # or above the bound never matter.
        rel = []
        for e, n in ints[1:]:
            if e - lam >= bound:
                break
            rel.append(((e - lam) // step, n))
        Q, series = _binomial_series(rel, n0, p, q, -(-bound // step), r0)
        out = [(mu + k * step * q, n) for k, n in enumerate(series) if n]
        return LCNumber._canon(D, Q, out, mu + bound * q)

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
        # <=, > and >= come from total_ordering; compare is EQ only for equal stored forms.
        return self.compare(other) is Comparison.LT

    def __eq__(self, other) -> bool:
        # Canonical-form equality: same stored form; a bool is its int.
        if isinstance(other, (int, Fraction)):
            other = LCNumber._constant(other)
        if not isinstance(other, LCNumber):
            return NotImplemented
        return (self._ints == other._ints and self._Q == other._Q and self._T == other._T
                and self._D == other._D)

    def __hash__(self) -> int:
        # An exact constant equals its Fraction, so it hashes as one.
        x = self._ints
        if self._T is None and (not x or len(x) == 1 and x[0][0] == 0):
            return hash(Fraction(x[0][1], self._Q)) if x else 0
        return hash((self._D, self._Q, x, self._T))

    def st(self) -> Fraction:
        """Standard part (shadow): the unique rational infinitely close to self.

        Defined for limited numbers whose truncation order exceeds 0.
        """
        lead = self._lead("truncation order {T} <= 0 hides the standard part", 0)
        if lead is None or lead[0] > 0:  # zero, up to a positive order or exactly, or infinitesimal
            return Fraction(0)
        if lead[0] < 0:
            raise UnlimitedError("standard part of an unlimited number")
        return Fraction(lead[1], self._Q)

    def tlh(self) -> "LCNumber":
        """Keep only the dominant (lowest-exponent) term; discard the rest.

        This is the reduction that turns ``a + dx`` into ``a`` and
        ``dx + ddy`` into ``dx``.
        """
        lead = self._lead("zero up to O(eps^({T})); dominant term unknown")
        if lead is None:
            raise ZeroInputError("no dominant term in zero")
        return LCNumber._canon(self._D, self._Q, [lead], None)

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
    """n/d as ``str(Fraction(n, d))`` prints it, for d > 0.  The one place an int becomes text
    for ``str``: past the digit limit, :func:`_digit_limit_error`."""
    try:
        if d == 1:
            return str(n)
        g = gcd(n, d)
        return str(n // g) if g == d else f"{n // g}/{d // g}"
    except ValueError:
        raise _digit_limit_error() from None


def rational_text(r: Rational) -> str:
    """``str(r)`` of an int or Fraction, through :func:`_ratio`."""
    return _ratio(r.numerator, r.denominator)


def _typed(to_text, *args) -> str:
    """``to_text(*args)``, with CPython's digit-limit ValueError as :func:`_digit_limit_error`."""
    try:
        return to_text(*args)
    except ValueError:
        raise _digit_limit_error() from None


def record(cls):
    """``dataclass(frozen=True)``, whose generated repr goes through :func:`_typed`."""
    generated = dataclass(frozen=True)(cls).__repr__
    cls.__repr__ = lambda self: _typed(generated, self)
    return cls


def _summand(n: int, d: int, name: str) -> tuple[bool, str]:
    """The summand ``(n/d)*name`` as a ``(negative, text)`` pair, for d > 0; ``name`` is
    empty for a constant, and a coefficient of magnitude 1 is left out."""
    mag = _ratio(abs(n), d)
    return n < 0, mag if not name else name if mag == "1" else f"{mag}*{name}"


def render(a: LCNumber) -> str:
    D, Q = a._D, a._Q
    summands = [_summand(n, Q, "" if e == 0 else "eps" if e == D else f"eps^({_ratio(e, D)})")
                for e, n in a._ints]
    if a._T is not None:
        summands.append((False, f"O(eps^({_ratio(a._T, D)}))"))
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
        cap = _digit_limit()
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

    def accept(self, text: str) -> bool:
        """Step past the next token if its text is ``text``; say whether it was."""
        found = self.at(text)
        self.i += found
        return found

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
        if not self.accept("/"):
            return Fraction(int(tok[1]))
        den = self.next()
        if den[0] != "int":
            raise ParseError("expected a denominator", den[2])
        if int(den[1]) == 0:
            raise ParseError("zero denominator", den[2])
        return Fraction(int(tok[1]), int(den[1]))

    def eps_part(self) -> Fraction:
        """``eps`` with an optional exponent, bare or in parentheses."""
        self.expect("eps")
        if not self.accept("^"):
            return Fraction(1)
        paren = self.accept("(")
        val = -self.fraction() if self.accept("-") else self.fraction()
        if paren:
            self.expect(")")
        return val

    def term(self) -> tuple[Optional[Fraction], Fraction]:
        """Returns (exponent, coefficient); exponent None flags an O() tail."""
        if self.peek() is None:
            raise ParseError("expected a term", len(self.src))
        if self.accept("O"):
            self.expect("(")
            exp = self.eps_part()
            self.expect(")")
            return None, exp
        if self.at("eps"):
            return self.eps_part(), Fraction(1)
        coeff = self.fraction()
        if not self.accept("*") and not self.at("eps"):
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
    if not _exact(src, (str,)).strip():
        raise ParseError("empty number literal", 0)
    return _NumberParser(src).parse()
