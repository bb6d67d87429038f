"""The power-series kernel behind inv, nth_root, rational Pow and negative pow_int.

Random operands mix two exponent lattices and may carry an O() tail or no
terms at all.  Results are checked three ways: against the repeated-power
routines the kernel replaced (kept below as the reference), against sympy's
ring_series, and by refinement (doubling the depth never changes what a lower
depth reported).  The integer inner loops of `*`, `+` and the Miller recurrence
are checked against the Fraction loops they replaced, also kept below.
"""

import pickle
from fractions import Fraction as F
from math import ceil, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import QQ, Rational, nextprime
from sympy.polys.ring_series import rs_nth_root, rs_pow, rs_series_inversion
from sympy.polys.rings import ring

from conftest import outcome
from lcfield.errors import UndecidableError, ZeroDivisionLCError
from lcfield.expr import Pow, Var, eval_field
from lcfield.number import EPS, LCNumber, _binomial_series, _min_trunc, rational_nth_root

# ---------------------------------------------------------------------------
# Reference: sum_k c_k * u^k with every power u^k built by a dict product
# ---------------------------------------------------------------------------


def _granularity(x):
    lam = x.terms[0][0]
    g = None
    for q, _ in x.terms[1:]:
        o = q - lam
        g = o if g is None else F(
            gcd(g.numerator * o.denominator, o.numerator * g.denominator),
            g.denominator * o.denominator,
        )
    return g


def _dict_mul(a, b, bound):
    out = {}
    for qa, ca in a.items():
        for qb, cb in b.items():
            if qa + qb < bound:
                out[qa + qb] = out.get(qa + qb, 0) + ca * cb
    return {q: c for q, c in out.items() if c != 0}


def _power_sum(x, alpha, depth):
    """(lam, c0, series, bound): series = {offset: coefficient} of
    (1+u)^alpha = sum_k binom(alpha, k) * u^k below the bound, None for a
    monomial (whose bound is then the known relative range)."""
    lam, c0 = x.terms[0]
    rel_known = None if x.trunc is None else x.trunc - lam
    rel = {q - lam: c / c0 for q, c in x.terms[1:]}
    if not rel:
        return lam, c0, None, rel_known
    bound = depth * _granularity(x)
    if rel_known is not None:
        bound = min(bound, rel_known)
    series = {F(0): F(1)}
    power, coeff, k = dict(rel), F(1), 0
    while power:
        coeff = coeff * (alpha - k) / (k + 1)
        k += 1
        for q, c in power.items():
            series[q] = series.get(q, F(0)) + coeff * c
        power = _dict_mul(power, rel, bound)
    return lam, c0, {q: c for q, c in series.items() if q < bound and c != 0}, bound


def ref_inv(x, depth):
    if not x.terms:
        if x.trunc is None:
            raise ZeroDivisionLCError("inverse of zero")
        raise UndecidableError(f"operand is zero up to O(eps^({x.trunc})); inverse undecidable")
    lam, c0, series, bound = _power_sum(x, -1, depth)
    if series is None:
        return LCNumber([(-lam, 1 / c0)], None if bound is None else -lam + bound)
    return LCNumber([(q - lam, c / c0) for q, c in series.items()], -lam + bound)


def ref_nth_root(x, n, depth):
    if not x.terms:
        if x.trunc is None:
            return LCNumber()
        raise UndecidableError(f"operand is zero up to O(eps^({x.trunc})); root undecidable")
    r0 = rational_nth_root(x.terms[0][1], n)
    lam, _, series, bound = _power_sum(x, F(1, n), depth)
    mu = lam / n
    if series is None:
        return LCNumber([(mu, r0)], None if bound is None else mu + bound)
    return LCNumber([(q + mu, c * r0) for q, c in series.items()], mu + bound)


def ref_pow_int(x, k, depth):
    """A term-less operand is refused before the power, with its own truncation order."""
    if k < 0:
        return ref_inv(x.pow_int(-k, depth) if x.terms else x, depth)
    return x.pow_int(k, depth)


def ref_pow(x, alpha, depth):
    """Pow lowered to the q-th root of the integer power x^p; a term-less operand is
    refused before the power, with its own truncation order."""
    p = ref_pow_int(x, alpha.numerator if x.terms else (1 if alpha > 0 else -1), depth)
    return p if alpha.denominator == 1 else ref_nth_root(p, alpha.denominator, depth)


# ---------------------------------------------------------------------------
# Operands and exponents
# ---------------------------------------------------------------------------

coefficients = st.sampled_from(
    [F(1), F(-1), F(2), F(4), F(9), F(8), F(-8), F(27), F(1, 4), F(-1, 8), F(3, 2), F(9, 4)]
)
depths = st.integers(min_value=1, max_value=24)
alphas = st.sampled_from(
    [F(1, 2), F(3, 2), F(-1, 2), F(-3, 2), F(1, 3), F(2, 3), F(-2, 3), F(-1, 3),
     F(5, 2), F(-5, 3), F(1, 4), F(-3, 4), F(-1), F(-2), F(-3)]
)


@st.composite
def operands(draw, min_terms=0):
    """Up to five terms on the lattices 1/a and 1/b, maybe an O() tail."""
    lattices = [draw(st.integers(1, 11)), draw(st.integers(1, 11))]
    lead = F(draw(st.integers(-6, 6)), draw(st.sampled_from(lattices)))
    n = draw(st.integers(min_terms, 5))
    terms = {}
    for i in range(n):
        offset = F(draw(st.integers(1, 12)), draw(st.sampled_from(lattices))) if i else 0
        terms[lead + offset] = draw(coefficients)
    trunc = None
    if draw(st.booleans()):
        above = F(draw(st.integers(1 if terms else -6, 9)), draw(st.sampled_from(lattices)))
        trunc = max(terms, default=lead) + above
    return LCNumber(terms.items(), trunc)


def kernel_calls(x, alpha, depth):
    """name -> (new, reference) for every entry point of the kernel."""
    k = -abs(alpha.numerator)
    return {
        "inv": (lambda: x.inv(depth), lambda: ref_inv(x, depth)),
        "sqrt": (lambda: x.nth_root(2, depth), lambda: ref_nth_root(x, 2, depth)),
        "cbrt": (lambda: x.nth_root(3, depth), lambda: ref_nth_root(x, 3, depth)),
        "Pow": (
            lambda: eval_field(Pow(Var("x"), alpha), {"x": x}, depth),
            lambda: ref_pow(x, alpha, depth),
        ),
        "pow_int": (lambda: x.pow_int(k, depth), lambda: ref_pow_int(x, k, depth)),
    }


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(operands(), alphas, depths)
@settings(max_examples=250, deadline=None)
def test_identical_to_power_sum_reference(x, alpha, depth):
    for name, (new, ref) in kernel_calls(x, alpha, depth).items():
        got, want = outcome(new), outcome(ref)
        assert got == want, name
        assert str(got) == str(want), name


_R, _T = ring("T", QQ)


@given(operands(min_terms=2), alphas, depths)
@settings(max_examples=150, deadline=None)
def test_coefficients_match_ring_series(x, alpha, depth):
    assume(len(x.terms) >= 2)
    lam, c0 = x.terms[0]
    x = x * LCNumber.from_rational(1 / c0)  # every root of the leading 1 exists
    step = _granularity(x)
    bound = depth * step if x.trunc is None else min(depth * step, x.trunc - lam)
    prec = ceil(bound / step)
    one_plus_u = _R(1)
    for q, c in x.terms[1:]:
        one_plus_u += QQ(c.numerator, c.denominator) * _T ** int((q - lam) / step)
    k = -abs(alpha.numerator)
    cases = [
        (x.inv(depth), -1, rs_series_inversion(one_plus_u, _T, prec)),
        (x.nth_root(2, depth), F(1, 2), rs_nth_root(one_plus_u, 2, _T, prec)),
        (eval_field(Pow(Var("x"), alpha), {"x": x}, depth), alpha,
         rs_pow(one_plus_u, Rational(alpha.numerator, alpha.denominator), _T, prec)),
        (x.pow_int(k, depth), k, rs_pow(one_plus_u, k, _T, prec)),
    ]
    for got, a, series in cases:
        mu = lam * a
        want = LCNumber(
            [(mu + e * step, F(int(c.numerator), int(c.denominator)))
             for (e,), c in series.items() if e < prec],
            mu + bound,
        )
        assert got == want, (a, str(got), str(want))


@given(operands(), operands(), alphas, depths)
@settings(max_examples=150, deadline=None)
def test_results_are_canonical(x, y, alpha, depth):
    """Each result is its own normal form, built from Fractions only."""
    calls = [lambda: x + y, lambda: x - y, lambda: -x, lambda: x * y, lambda: 2 - x * 3,
             lambda: x.inv(depth), lambda: x.nth_root(2, depth), lambda: x.nth_root(3, depth),
             lambda: x.pow_rational(alpha, depth)]
    calls += [lambda k=k: x.pow_int(k, depth) for k in range(5)]
    for f in calls:
        r = outcome(f)
        if not isinstance(r, LCNumber):
            continue
        assert LCNumber(r.terms, r.trunc) == r, str(r)
        # Checked directly too: the public constructor shares the kernel's filter and sort.
        assert all(a[0] < b[0] for a, b in zip(r.terms, r.terms[1:])), r.terms
        assert all(c != 0 and (r.trunc is None or q < r.trunc) for q, c in r.terms), str(r)
        assert all(type(v) is F for term in r.terms for v in term), r.terms
        assert r.trunc is None or type(r.trunc) is F, r.trunc


@given(operands(), alphas, st.integers(min_value=1, max_value=12))
@settings(max_examples=150, deadline=None)
def test_doubling_the_depth_refines(x, alpha, depth):
    higher = kernel_calls(x, alpha, 2 * depth)
    for name, (new, _) in kernel_calls(x, alpha, depth).items():
        lo, hi = outcome(new), outcome(higher[name][0])
        if not isinstance(lo, LCNumber) or lo.trunc is None:
            assert hi == lo, name
            continue
        assert hi.trunc is not None and hi.trunc >= lo.trunc, name
        assert tuple(t for t in hi.terms if t[0] < lo.trunc) == lo.terms, name


# ---------------------------------------------------------------------------
# Reference: the Fraction-loop `*`, `+` and Miller recurrence that the
# integer inner loops replaced
# ---------------------------------------------------------------------------


def _frac_gcd(a, b):
    n = gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return F(n, a.denominator * b.denominator)


def fraction_add(a, b):
    acc = dict(a.terms)
    for q, c in b.terms:
        acc[q] = acc[q] + c if q in acc else c
    return LCNumber(acc.items(), _min_trunc(a.trunc, b.trunc))


def fraction_mul(a, b):
    if a.is_zero or b.is_zero:
        return LCNumber()
    lo_a = a.terms[0][0] if a.terms else a.trunc
    lo_b = b.terms[0][0] if b.terms else b.trunc
    bound = None
    if a.trunc is not None:
        bound = a.trunc + lo_b
    if b.trunc is not None:
        bound = _min_trunc(bound, b.trunc + lo_a)
    prod = {}
    for qa, ca in a.terms:
        for qb, cb in b.terms:
            q = qa + qb
            if bound is None or q < bound:
                prod[q] = prod.get(q, 0) + ca * cb
    return LCNumber(prod.items(), bound)


def fraction_binomial_series(rel, alpha, n):
    p, q = alpha.numerator, alpha.denominator
    g = [F(1)]
    for k in range(1, n):
        s = F(0)
        for j, a in rel:
            if j > k:
                break
            s += ((p + q) * j - q * k) * a * g[k - j]
        g.append(s / (q * k))
    return g


def fraction_pow_rational(x, alpha, depth):
    alpha = F(alpha)
    p, q = alpha.numerator, alpha.denominator
    if not x.terms:
        if x.trunc is None:
            if p < 0:
                raise ZeroDivisionLCError("inverse of zero")
            return LCNumber()
        what = "inverse" if p < 0 else "root"
        raise UndecidableError(
            f"operand is zero up to O(eps^({x.trunc})); {what} undecidable"
        )
    lam, c0 = x.terms[0]
    r0 = c0**p if q == 1 else rational_nth_root(c0**p, q)
    mu = lam * alpha
    rel_known = None if x.trunc is None else x.trunc - lam
    if len(x.terms) == 1:
        return LCNumber([(mu, r0)], None if rel_known is None else mu + rel_known)
    step = x.terms[1][0] - lam
    for e, _ in x.terms[2:]:
        step = _frac_gcd(step, e - lam)
    bound = _min_trunc(depth * step, rel_known)
    rel = [(int((e - lam) / step), c / c0) for e, c in x.terms[1:] if e - lam < bound]
    g = fraction_binomial_series(rel, alpha, ceil(bound / step))
    return LCNumber([(mu + k * step, r0 * c) for k, c in enumerate(g)], mu + bound)


def fraction_pow_int(x, k, depth):
    if k < 0:
        return fraction_pow_rational(x, k, depth)
    result, base = None, x
    while k:
        if k & 1:
            result = base if result is None else fraction_mul(result, base)
        base = fraction_mul(base, base) if k > 1 else base
        k >>= 1
    return LCNumber.from_rational(1) if result is None else result


# Exact n-th powers, so that roots of a leading coefficient often exist; 2^60 has a root
# of every index that divides 60, and (-3)^7 and (2/3)^11 have the odd roots 7 and 11.
_powers = [F(1), F(-1), F(4), F(9, 4), F(8), F(-27, 8), F(1, 64), F(729, 1000000),
           F(2**60), F((-3) ** 7), F(2**11, 3**11)]

# Exponent denominators and root indices: the small ones, and 5, 7, 11, 12 and 60.
_indices = [1, 2, 3, 4, 5, 7, 11, 12, 60]


@st.composite
def wide_operands(draw):
    """Up to six terms on the lattices 1/a and 1/b (a, b in 1..11 or 1000),
    negative exponents, coefficient denominators up to 10^6, maybe an O() tail;
    term-less and exactly zero values included."""
    lattices = [draw(st.sampled_from([*range(1, 12), 1000])) for _ in range(2)]
    lead = F(draw(st.integers(-8, 8)), draw(st.sampled_from(lattices)))
    terms = {}
    for i in range(draw(st.integers(0, 6))):
        offset = F(draw(st.integers(1, 12)), draw(st.sampled_from(lattices))) if i else 0
        terms[lead + offset] = draw(st.one_of(
            st.sampled_from(_powers),
            st.builds(F, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**6)),
        ))
    trunc = None
    if draw(st.booleans()):
        above = F(draw(st.integers(1 if terms else -8, 12)), draw(st.sampled_from(lattices)))
        trunc = max(terms, default=lead) + above
    return LCNumber(terms.items(), trunc)


def _same(got, want):
    """Equal term for term and in trunc, or the same error class and message."""
    assert type(got) is type(want), (got, want)
    if isinstance(got, LCNumber):
        assert got.terms == want.terms and got.trunc == want.trunc, (str(got), str(want))
        assert all(type(v) is F for t in got.terms for v in t), got.terms
    else:
        assert got == want


@given(wide_operands(), wide_operands(), st.integers(1, 64),
       st.sampled_from([F(p, q) for p in (-5, -3, -2, -1, 1, 2, 3, 5) for q in _indices]),
       st.integers(-4, 4), st.sampled_from(_indices[1:]))
@settings(max_examples=300, deadline=None)
def test_integer_loops_match_the_fraction_loops(x, y, depth, alpha, k, n):
    pairs = [
        ("*", lambda: x * y, lambda: fraction_mul(x, y)),
        ("+", lambda: x + y, lambda: fraction_add(x, y)),
        ("-", lambda: x - y,
         lambda: fraction_add(x, LCNumber([(q, -c) for q, c in y.terms], y.trunc))),
        ("inv", lambda: x.inv(depth), lambda: fraction_pow_rational(x, -1, depth)),
        ("nth_root", lambda: x.nth_root(n, depth), lambda: fraction_pow_rational(x, F(1, n), depth)),
        ("pow_rational", lambda: x.pow_rational(alpha, depth),
         lambda: fraction_pow_rational(x, alpha, depth)),
        ("pow_int", lambda: x.pow_int(k, depth), lambda: fraction_pow_int(x, k, depth)),
    ]
    for name, new, ref in pairs:
        got, want = outcome(new), outcome(ref)
        try:
            _same(got, want)
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from None


# u's shapes: dense and sparse, with numerators that share factors with m and with each other.
_RELS = [[(1, 1)], [(1, 2), (2, -5)], [(1, -3), (2, 1), (3, 7)], [(2, 9), (5, -4)]]


@pytest.mark.parametrize("q", [1, 2, 3, 7, 12, 60, 1000])
def test_binomial_series_matches_the_fraction_loop(q):
    """Each a_j = n_j / n0 is N_j / m in lowest terms over one m, which takes repeated prime
    factors; n0 carries the common factor 6 of every n_j, and either sign."""
    for p in (-3, -1, 1, 5):
        if gcd(p, q) != 1:
            continue
        for r0 in (F(5, 9), F(-7, 4)):
            for m in (1, 8, 27, 3**7, 2 * 3 * 5 * 7 * 11):
                for sign, rel in zip((1, -1, -1, 1), _RELS):
                    n0, rel = sign * 6 * m, [(j, 6 * nj) for j, nj in rel]
                    a = [(j, F(nj, n0)) for j, nj in rel]
                    for n in (1, 2, 16, 48, 64):
                        want = [r0 * c for c in fraction_binomial_series(a, F(p, q), n)]
                        Q, h = _binomial_series(rel, n0, p, q, n, r0)
                        assert [F(c, Q) for c in h] == want, (p, q, r0, m, rel, n)


# ---------------------------------------------------------------------------
# The stored form: a lattice denominator D, one coefficient denominator Q,
# integer (e, n) pairs and an integer truncation order, the Fraction views
# built only when read
# ---------------------------------------------------------------------------


def _stored(x):
    return x._D, x._Q, x._ints, x._T


def _assert_canonical(r):
    D, Q, ints, T = _stored(r)
    assert type(D) is int and D >= 1 and (T is None or type(T) is int), _stored(r)
    assert type(Q) is int and Q >= 1, _stored(r)
    assert type(ints) is tuple and all(type(t) is tuple and len(t) == 2 for t in ints), ints
    assert all(type(v) is int for t in ints for v in t), ints
    assert all(a[0] < b[0] for a, b in zip(ints, ints[1:])), ints
    assert all(n != 0 for _, n in ints), ints
    # Q and the numerators are in lowest terms, and a value with no terms has Q = 1.
    assert gcd(Q, *[n for _, n in ints]) == 1 and (ints or Q == 1), _stored(r)
    assert T is None or all(e < T for e, _ in ints), (ints, T)
    # D is the least common denominator of the exponents and the truncation order.
    assert gcd(D, T or 0, *[e for e, _ in ints]) == 1, _stored(r)
    rebuilt = LCNumber(r.terms, r.trunc)
    assert rebuilt == r and _stored(rebuilt) == _stored(r) and hash(rebuilt) == hash(r), str(r)


def _all_ops(x, y, depth, alpha, k, n):
    calls = [lambda: x, lambda: x + y, lambda: x - y, lambda: -x, lambda: x * y, lambda: x * 3,
             lambda: F(-2, 9) * x, lambda: x * EPS.nth_root(2), lambda: 2 - x,
             lambda: x.inv(depth), lambda: x.nth_root(n, depth),
             lambda: x.pow_rational(alpha, depth), lambda: x.pow_int(k, depth), lambda: x.tlh()]
    return [r for r in map(outcome, calls) if isinstance(r, LCNumber)]


@given(wide_operands(), wide_operands(), st.integers(1, 32),
       st.sampled_from([F(p, q) for p in (-3, -1, 0, 1, 2) for q in (1, 2, 3)]),
       st.integers(-3, 4), st.sampled_from([2, 3]))
@settings(max_examples=200, deadline=None)
@example(LCNumber([(2, 4), (3, 1)]), LCNumber(), 8, F(1, 2), 2, 2)  # a root that coarsens D
@example(LCNumber([(0, 1), (F(1, 2), 1)]), LCNumber([(F(1, 2), -1)], 3), 8, F(1), 1, 2)
def test_results_are_stored_canonically(x, y, depth, alpha, k, n):
    """Equal values are stored identically, so they are equal and hash equal."""
    for r in _all_ops(x, y, depth, alpha, k, n):
        _assert_canonical(r)


def test_lattice_coarsens_when_the_fine_terms_go():
    root = LCNumber([(2, 4), (3, 1)]).nth_root(2, 8)  # 2*eps + 1/4*eps^(2) - ... on Z
    assert root._D == 1 and root == LCNumber(root.terms, root.trunc)
    total = LCNumber([(0, 1), (F(1, 2), 1)]) + LCNumber([(F(1, 2), -1)], 3)
    assert _stored(total) == (1, 1, ((0, 1),), 3) and str(total) == "1 + O(eps^(3))"
    cut = LCNumber([(0, 1), (F(5, 2), 1)]) + LCNumber([], 2)
    assert _stored(cut) == (1, 1, ((0, 1),), 2)
    mixed = LCNumber([(0, F(1, 2)), (1, F(1, 3))])  # one denominator, 6, for both terms
    assert _stored(mixed) == (1, 6, ((0, 3), (1, 2)), None)
    assert _stored(mixed - LCNumber([(1, F(1, 3))])) == (1, 2, ((0, 1),), None)


@given(wide_operands(), wide_operands(), st.integers(1, 16))
@settings(max_examples=100, deadline=None)
def test_pickle_round_trips_before_and_after_the_view(x, y, depth):
    for r in _all_ops(x, y, depth, F(-1, 2), 2, 3):
        before = pickle.loads(pickle.dumps(r))
        assert _stored(before) == _stored(r) and hash(before) == hash(r)
        terms, trunc = r.terms, r.trunc  # the views are built on every read, never cached
        after = pickle.loads(pickle.dumps(r))
        assert _stored(after) == _stored(r) and after.terms == terms and after.trunc == trunc
        assert str(before) == str(after) == str(r)


@given(wide_operands(), st.sampled_from(_powers + [F(0), F(3), F(-5, 7)]),
       st.sampled_from([0, 0, F(-3), F(1, 2), F(7, 1000)]))
@settings(max_examples=200, deadline=None)
def test_monomial_factor_matches_the_fraction_loop(x, c, q):
    """A one-term exact factor, a constant included, gives the Fraction loop's product."""
    m = LCNumber([(q, c)])
    for got, want in ((x * m, fraction_mul(x, m)), (m * x, fraction_mul(m, x))):
        _same(got, want)
        _assert_canonical(got)


# ---------------------------------------------------------------------------
# One denominator per number at its worst: every coefficient over its own
# prime near 10^30, so that Q is their product and only the content gcd of a
# sum that cancels can shrink it back
# ---------------------------------------------------------------------------


def _primes_above(start, count):
    out = []
    for _ in range(count):
        start = nextprime(start)
        out.append(start)
    return out


_PRIMES = _primes_above(10**30, 12)
_numerators = st.integers(-10**6, 10**6).filter(bool)


@st.composite
def prime_operands(draw, n):
    """One to five terms on the lattice 1, 1/6 or 1/1000, maybe an O() tail.  Each
    coefficient is over its own prime near 10^30; the leading one is an n-th power,
    so that its n-th root exists."""
    step = F(1, draw(st.sampled_from([1, 6, 1000])))
    primes = draw(st.permutations(_PRIMES))
    offsets = sorted(draw(st.sets(st.integers(1, 12), max_size=4)))
    lead = draw(st.integers(-6, 6)) * step
    terms = [(lead, F(draw(_numerators), primes[0]) ** n)]
    terms += [(lead + o * step, F(draw(_numerators), p)) for o, p in zip(offsets, primes[1:])]
    trunc = None
    if draw(st.booleans()):
        trunc = lead + (max(offsets, default=0) + draw(st.integers(1, 6))) * step
    return LCNumber(terms, trunc)


@st.composite
def prime_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    return n, draw(prime_operands(n)), draw(prime_operands(n)), draw(st.integers(1, 12))


@given(prime_cases())
@settings(max_examples=120, deadline=None)
def test_prime_denominators_match_the_fraction_loops(case):
    n, x, y, depth = case
    pairs = [
        ("+", lambda: x + y, lambda: fraction_add(x, y)),
        ("-", lambda: x - y,
         lambda: fraction_add(x, LCNumber([(q, -c) for q, c in y.terms], y.trunc))),
        ("*", lambda: x * y, lambda: fraction_mul(x, y)),
        ("inv", lambda: x.inv(depth), lambda: fraction_pow_rational(x, -1, depth)),
        ("nth_root", lambda: x.nth_root(n, depth),
         lambda: fraction_pow_rational(x, F(1, n), depth)),
    ]
    for name, new, ref in pairs:
        got, want = outcome(new), outcome(ref)
        try:
            _same(got, want)
            assert isinstance(got, LCNumber), got  # the leading n-th power has its root
            _assert_canonical(got)
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from None


@given(prime_cases())
@settings(max_examples=120, deadline=None)
def test_a_sum_that_cancels_shrinks_the_denominator_back(case):
    _, x, y, _ = case
    x, y = LCNumber(x.terms), LCNumber(y.terms)  # exact: no tail hides a term of y
    assert _stored((x + y) - y) == _stored(x)
    assert _stored((y + x) - y) == _stored(x)
