"""Shared strategies and oracle helpers for the test suite.

The symbolic oracle is sympy: syntax trees are converted node by node and
differentiated / expanded there, independently of the field arithmetic under
test.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
from fractions import Fraction

import sympy as sp
from hypothesis import strategies as st

from lcfield.errors import LCError
from lcfield.expr import Add, Div, Expr, Lit, Mul, Neg, Pow, Sqrt, Sub, Var
from lcfield.number import LCNumber


def outcome(f):
    """The result of ``f()``, or the class and message of the LCError it raises."""
    try:
        return f()
    except LCError as exc:
        return type(exc), str(exc)


def golden(name: str):
    """``tests/golden/<name>.py``, the writer of a golden corpus, as a module."""
    path = pathlib.Path(__file__).resolve().parent / "golden" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

rationals = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)

nonzero_rationals = rationals.filter(lambda r: r != 0)

# Exponents on a half-integer lattice keep truncation bookkeeping interesting
# without blowing up series sizes.
exponents = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.sampled_from([1, 2])
)

positive_exponents = exponents.filter(lambda q: q > 0)


@st.composite
def lc_numbers(draw, min_terms=0, max_terms=4, exponent_strategy=exponents):
    terms = draw(
        st.lists(
            st.tuples(exponent_strategy, nonzero_rationals),
            min_size=min_terms,
            max_size=max_terms,
            unique_by=lambda t: t[0],
        )
    )
    return LCNumber(terms)


exact_numbers = lc_numbers()
nonzero_numbers = lc_numbers(min_terms=1)
infinitesimals = lc_numbers(
    min_terms=1, exponent_strategy=positive_exponents
)
limited_numbers = lc_numbers(exponent_strategy=exponents.filter(lambda q: q >= 0))


# ---------------------------------------------------------------------------
# sympy bridge
# ---------------------------------------------------------------------------


def expr_to_sympy(e: Expr):
    if isinstance(e, Var):
        return sp.Symbol(e.name)
    if isinstance(e, Lit):
        return sp.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Add):
        return expr_to_sympy(e.left) + expr_to_sympy(e.right)
    if isinstance(e, Sub):
        return expr_to_sympy(e.left) - expr_to_sympy(e.right)
    if isinstance(e, Mul):
        return expr_to_sympy(e.left) * expr_to_sympy(e.right)
    if isinstance(e, Div):
        return expr_to_sympy(e.left) / expr_to_sympy(e.right)
    if isinstance(e, Neg):
        return -expr_to_sympy(e.operand)
    if isinstance(e, Pow):
        return expr_to_sympy(e.base) ** sp.Rational(
            e.exponent.numerator, e.exponent.denominator
        )
    if isinstance(e, Sqrt):
        return sp.sqrt(expr_to_sympy(e.operand))
    raise TypeError(f"not an expression node: {e!r}")


def sympy_to_fraction(value) -> Fraction:
    value = sp.nsimplify(value)
    if not value.is_rational:
        raise ValueError(f"{value} is not rational")
    return Fraction(int(sp.numer(value)), int(sp.denom(value)))


# ---------------------------------------------------------------------------
# Random rational-function expressions (for oracle-equivalence corpora)
# ---------------------------------------------------------------------------


def random_ratfunc_expr(rng: random.Random, depth: int = 3) -> Expr:
    """A random expression built from +, -, *, /, integer powers of x."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var("x")
        return Lit(Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
    op = rng.randrange(5)
    if op == 0:
        return Add(random_ratfunc_expr(rng, depth - 1), random_ratfunc_expr(rng, depth - 1))
    if op == 1:
        return Sub(random_ratfunc_expr(rng, depth - 1), random_ratfunc_expr(rng, depth - 1))
    if op == 2:
        return Mul(random_ratfunc_expr(rng, depth - 1), random_ratfunc_expr(rng, depth - 1))
    if op == 3:
        return Div(random_ratfunc_expr(rng, depth - 1), random_ratfunc_expr(rng, depth - 1))
    return Pow(random_ratfunc_expr(rng, depth - 1), Fraction(rng.randint(1, 3)))


def random_polynomial_expr(rng: random.Random, variables, depth: int = 3) -> Expr:
    """A random polynomial expression (no division) over the given variables."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return Var(rng.choice(variables))
        return Lit(Fraction(rng.randint(-4, 4)))
    op = rng.randrange(4)
    if op == 0:
        return Add(
            random_polynomial_expr(rng, variables, depth - 1),
            random_polynomial_expr(rng, variables, depth - 1),
        )
    if op == 1:
        return Sub(
            random_polynomial_expr(rng, variables, depth - 1),
            random_polynomial_expr(rng, variables, depth - 1),
        )
    if op == 2:
        return Mul(
            random_polynomial_expr(rng, variables, depth - 1),
            random_polynomial_expr(rng, variables, depth - 1),
        )
    return Pow(random_polynomial_expr(rng, variables, depth - 1), Fraction(rng.randint(1, 2)))


def sympy_poly_to_expr(poly, variables) -> Expr:
    """Rebuild an expanded sympy polynomial as a (different) syntax tree."""
    poly = sp.Poly(sp.expand(poly), *[sp.Symbol(v) for v in variables])
    result: Expr = Lit(Fraction(0))
    for monom, coeff in poly.terms():
        term: Expr = Lit(Fraction(int(sp.numer(coeff)), int(sp.denom(coeff))))
        for var, power in zip(variables, monom):
            if power:
                term = Mul(term, Pow(Var(var), Fraction(power)))
        result = Add(result, term)
    return result
