"""A small expression language evaluated verbatim over the enriched field.

The same syntax tree can be evaluated over plain rationals
(:func:`eval_rational`) or over :class:`~lcfield.number.LCNumber` values
(:func:`eval_field`).  Nothing in the evaluator special-cases infinitesimal or
unlimited inputs: rules instituted on finite rationals are applied unchanged
to inassignable values, and :func:`transfer_check` probes that this actually
preserves identities.

Grammar (also in docs/grammar.md)::

    expr     = term , { ("+" | "-") , term } ;
    term     = unary , { ("*" | "/") , unary } ;
    unary    = "-" , unary | power ;
    power    = atom , { "^" , exponent } ;
    atom     = NUMBER | NAME | "sqrt" , "(" , expr , ")" | "(" , expr , ")" ;
    exponent = [ "-" ] , NUMBER
             | "(" , [ "-" ] , NUMBER , [ "/" , NUMBER ] , ")" ;

NUMBER is an unsigned integer or decimal literal (read exactly, never as a
float); NAME matches ``[a-zA-Z][a-zA-Z0-9_]*``.  ``^`` binds tighter than
unary minus; ``*``/``/`` and ``+``/``-`` are left-associative.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import (
    LCError,
    NotAnNthPowerError,
    NotAPerfectSquareError,
    ParseError,
    UnboundVariableError,
    UndecidableError,
    ZeroDivisionLCError,
)
from .number import DEFAULT_DEPTH, LCNumber, _Cursor, rational_nth_root


# ---------------------------------------------------------------------------
# Syntax tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: Fraction


@dataclass(frozen=True)
class Sqrt:
    operand: "Expr"


Expr = Union[Var, Lit, Add, Sub, Mul, Div, Neg, Pow, Sqrt]


def free_vars(e: Expr) -> frozenset:
    if isinstance(e, Var):
        return frozenset([e.name])
    if isinstance(e, Lit):
        return frozenset()
    if isinstance(e, (Add, Sub, Mul, Div)):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, (Neg, Sqrt)):
        return free_vars(e.operand)
    if isinstance(e, Pow):
        return free_vars(e.base)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Parser(_Cursor):
    TOKEN_RE = re.compile(r"(\d+\.\d+|\d+)|([a-zA-Z][a-zA-Z0-9_]*)|([+\-*/^()])|(\S)")
    KINDS = ("num", "name", "op")

    def expr(self) -> Expr:
        node = self.term()
        while self.at("+") or self.at("-"):
            op = self.next()[1]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.at("*") or self.at("/"):
            op = self.next()[1]
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self) -> Expr:
        if self.at("-"):
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while self.at("^"):
            self.next()
            node = Pow(node, self.exponent())
        return node

    def exponent(self) -> Fraction:
        paren = self.at("(")
        if paren:
            self.next()
        sign = 1
        if self.at("-"):
            self.next()
            sign = -1
        val = self.number()
        if paren:
            if self.at("/"):
                self.next()
                den_tok = self.peek()
                den = self.number()
                if den.denominator != 1:
                    raise ParseError("denominator must be an integer", den_tok[2])
                if den == 0:
                    raise ParseError("zero denominator", den_tok[2])
                val /= den
            self.expect(")")
        return sign * val

    def number(self) -> Fraction:
        tok = self.next()
        if tok[0] != "num":
            raise ParseError(f"expected a number, got {tok[1]!r}", tok[2])
        return Fraction(tok[1])

    def atom(self) -> Expr:
        tok = self.next()
        if tok[0] == "num":
            return Lit(Fraction(tok[1]))
        if tok[0] == "name":
            if tok[1] == "sqrt":
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return Sqrt(inner)
            if self.at("("):
                raise ParseError(f"unknown function {tok[1]!r}", tok[2])
            return Var(tok[1])
        if tok[1] == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return node


def parse(src: str) -> Expr:
    if not src.strip():
        raise ParseError("empty expression", 0)
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Rendering (fully parenthesized; parse(render(e)) == e whenever every
# literal has an exact decimal representation)
# ---------------------------------------------------------------------------


def _decimal_str(value: Fraction) -> Optional[str]:
    """Exact decimal string for value >= 0, or None if the denominator
    has a prime factor other than 2 and 5."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    k = max(twos, fives)
    scaled = value.numerator * 10**k // value.denominator
    digits = str(scaled).rjust(k + 1, "0")
    if k == 0:
        return digits
    return f"{digits[:-k]}.{digits[-k:]}"


def _render_exponent(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q)
    if q < 0:
        return f"(-{-q.numerator}/{q.denominator})"
    return f"({q.numerator}/{q.denominator})"


def render(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Lit):
        if e.value < 0:
            return f"(-{render(Lit(-e.value))})"
        dec = _decimal_str(e.value)
        if dec is not None:
            return dec
        return f"({e.value.numerator}/{e.value.denominator})"
    if isinstance(e, Add):
        return f"({render(e.left)} + {render(e.right)})"
    if isinstance(e, Sub):
        return f"({render(e.left)} - {render(e.right)})"
    if isinstance(e, Mul):
        return f"({render(e.left)}*{render(e.right)})"
    if isinstance(e, Div):
        return f"({render(e.left)}/{render(e.right)})"
    if isinstance(e, Neg):
        return f"(-{render(e.operand)})"
    if isinstance(e, Pow):
        return f"({render(e.base)}^{_render_exponent(e.exponent)})"
    if isinstance(e, Sqrt):
        return f"sqrt({render(e.operand)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_field(
    e: Expr, binding: Mapping[str, LCNumber], depth: int = DEFAULT_DEPTH
) -> LCNumber:
    """Evaluate over the field, applying finite-realm rules verbatim."""
    if isinstance(e, Var):
        try:
            value = binding[e.name]
        except KeyError:
            raise UnboundVariableError(f"variable {e.name!r} is not bound") from None
        return LCNumber._coerce(value)
    if isinstance(e, Lit):
        return LCNumber.from_rational(e.value)
    if isinstance(e, Add):
        return eval_field(e.left, binding, depth) + eval_field(e.right, binding, depth)
    if isinstance(e, Sub):
        return eval_field(e.left, binding, depth) - eval_field(e.right, binding, depth)
    if isinstance(e, Mul):
        return eval_field(e.left, binding, depth) * eval_field(e.right, binding, depth)
    if isinstance(e, Div):
        num = eval_field(e.left, binding, depth)
        den = eval_field(e.right, binding, depth)
        return num * den.inv(depth)
    if isinstance(e, Neg):
        return -eval_field(e.operand, binding, depth)
    if isinstance(e, Pow):
        base = eval_field(e.base, binding, depth)
        q = e.exponent
        if q.denominator == 1:
            return base.pow_int(q.numerator, depth)
        return base.pow_rational(q, depth)
    if isinstance(e, Sqrt):
        return eval_field(e.operand, binding, depth).nth_root(2, depth)
    raise TypeError(f"not an expression node: {e!r}")


def eval_rational(e: Expr, binding: Mapping[str, Fraction]) -> Fraction:
    """Evaluate over plain rationals (the finite-realm baseline)."""
    if isinstance(e, Var):
        try:
            return Fraction(binding[e.name])
        except KeyError:
            raise UnboundVariableError(f"variable {e.name!r} is not bound") from None
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Add):
        return eval_rational(e.left, binding) + eval_rational(e.right, binding)
    if isinstance(e, Sub):
        return eval_rational(e.left, binding) - eval_rational(e.right, binding)
    if isinstance(e, Mul):
        return eval_rational(e.left, binding) * eval_rational(e.right, binding)
    if isinstance(e, Div):
        den = eval_rational(e.right, binding)
        if den == 0:
            raise ZeroDivisionLCError("division by zero")
        return eval_rational(e.left, binding) / den
    if isinstance(e, Neg):
        return -eval_rational(e.operand, binding)
    if isinstance(e, Pow):
        base = eval_rational(e.base, binding)
        q = e.exponent
        if q < 0 and base == 0:
            raise ZeroDivisionLCError("zero to a negative power")
        if q.denominator == 1:
            return base**q.numerator
        return rational_nth_root(base**q.numerator, q.denominator)
    if isinstance(e, Sqrt):
        val = eval_rational(e.operand, binding)
        try:
            return rational_nth_root(val, 2)
        except NotAnNthPowerError:
            raise NotAPerfectSquareError(f"{val} is not a perfect rational square") from None
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Equational transfer check
# ---------------------------------------------------------------------------


@dataclass
class TransferFailure:
    kind: str  # "rational", "field", or "undecidable"
    binding: dict
    detail: str


@dataclass
class TransferReport:
    ok: bool
    rational_trials: int
    field_trials: int
    failures: list = field(default_factory=list)

    @property
    def first_counterexample(self) -> Optional[TransferFailure]:
        return self.failures[0] if self.failures else None


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_nonzero_rational(rng: random.Random) -> Fraction:
    while True:
        r = _random_rational(rng)
        if r != 0:
            return r


def random_field_value(rng: random.Random) -> LCNumber:
    """A random binding value: standard, infinitesimal, unlimited, or mixed."""
    kind = rng.randrange(5)
    std = LCNumber.from_rational(_random_rational(rng))
    small = LCNumber.monomial(_random_nonzero_rational(rng), rng.randint(1, 3))
    big = LCNumber.monomial(_random_nonzero_rational(rng), -rng.randint(1, 3))
    if kind == 0:
        return std
    if kind == 1:
        return small
    if kind == 2:
        return big
    if kind == 3:
        return std + small
    return big + std + small


def transfer_check(
    lhs: Expr,
    rhs: Expr,
    trials: int = 20,
    depth: int = DEFAULT_DEPTH,
    seed: int = 0,
) -> TransferReport:
    """Probe lhs == rhs at random finite bindings and at random bindings
    containing infinitesimal and unlimited values.

    Evaluation errors (division by zero, imperfect squares) discard the
    binding and draw again; undecidable comparisons are reported as failures
    with their own tag rather than silently passed.
    """
    rng = random.Random(seed)
    names = sorted(free_vars(lhs) | free_vars(rhs))
    report = TransferReport(ok=True, rational_trials=0, field_trials=0)

    attempts = 0
    while report.rational_trials < trials and attempts < trials * 20:
        attempts += 1
        binding = {name: _random_rational(rng) for name in names}
        try:
            diff = eval_rational(lhs, binding) - eval_rational(rhs, binding)
        except (ZeroDivisionLCError, NotAnNthPowerError):
            continue
        report.rational_trials += 1
        if diff != 0:
            report.ok = False
            report.failures.append(
                TransferFailure(
                    "rational",
                    {k: str(v) for k, v in binding.items()},
                    f"difference {diff}",
                )
            )

    attempts = 0
    while report.field_trials < trials and attempts < trials * 20:
        attempts += 1
        binding = {name: random_field_value(rng) for name in names}
        try:
            diff = eval_field(lhs, binding, depth) - eval_field(rhs, binding, depth)
        except UndecidableError as exc:
            report.field_trials += 1
            report.ok = False
            report.failures.append(
                TransferFailure(
                    "undecidable", {k: str(v) for k, v in binding.items()}, str(exc)
                )
            )
            continue
        except (ZeroDivisionLCError, NotAnNthPowerError):
            continue
        report.field_trials += 1
        if diff.terms:
            report.ok = False
            report.failures.append(
                TransferFailure(
                    "field",
                    {k: str(v) for k, v in binding.items()},
                    f"difference {diff}",
                )
            )

    return report
